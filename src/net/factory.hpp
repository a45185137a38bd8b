// One constructor for every transport. The coordinator, tests, and
// benches all need the same thing — a connected source/destination channel
// pair over one of the three transports — and used to hand-wire
// MemChannel::make_pair / SocketListener+connect_to / FileWriter+Reader
// separately. make_channel_pair() is the single copy of that wiring.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "net/channel.hpp"
#include "net/socket_channel.hpp"

namespace hpm::net {

/// How the two hosts exchange the migration stream.
enum class Transport : std::uint8_t {
  Memory,  ///< in-process pipe
  Socket,  ///< TCP over 127.0.0.1
  File,    ///< shared-file-system spool (simplex: source writes, dest reads)
};

const char* transport_name(Transport transport) noexcept;

struct ChannelOptions {
  /// Spool path; Transport::File only.
  std::string spool_path = "/tmp/hpm_spool.bin";

  /// Deadline applied to both endpoints at construction (0 = unbounded).
  std::chrono::milliseconds timeout{0};
};

/// A connected source/destination pair. For Transport::Socket the
/// listener that accepted the destination end rides along so its fd
/// outlives the channels; it is null for the other transports.
struct ChannelPair {
  std::unique_ptr<ByteChannel> source;
  std::unique_ptr<ByteChannel> destination;
  std::unique_ptr<SocketListener> listener;
};

/// Build a connected pair over `transport`. Throws hpm::NetError when the
/// transport cannot be brought up (port exhaustion, unwritable spool).
ChannelPair make_channel_pair(Transport transport, const ChannelOptions& options = {});

}  // namespace hpm::net
