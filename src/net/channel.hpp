// Layer 1 of the paper's software stack: basic data communication
// utilities. Migration information can be moved over TCP, a shared file
// system, or (for in-process experiments) a memory pipe — all behind one
// blocking byte-stream interface.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hpm::net {

/// One span of a gathered send.
using ConstBytes = std::span<const std::uint8_t>;

/// Total bytes of a gathered send.
inline std::size_t total_size(std::span<const ConstBytes> parts) noexcept {
  std::size_t total = 0;
  for (const ConstBytes part : parts) total += part.size();
  return total;
}

/// The parts of a gathered send stitched into one buffer (one copy).
inline std::vector<std::uint8_t> gather(std::span<const ConstBytes> parts) {
  std::vector<std::uint8_t> out;
  out.reserve(total_size(parts));
  for (const ConstBytes part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// Blocking, reliable, ordered byte stream between a migration source and
/// destination. Implementations: MemChannel (in-process), FileChannel
/// (shared file system), SocketChannel (TCP).
class ByteChannel {
 public:
  virtual ~ByteChannel() = default;

  /// Send all `data.size()` bytes; throws hpm::NetError on failure, or
  /// hpm::TimeoutError when a deadline is set and the peer stops draining.
  virtual void send(ConstBytes data) = 0;

  /// Send the concatenation of `parts` as one unit: the message layer
  /// ships each frame (head, payload, seal) in one call, which a fault
  /// decorator counts as one frame. Transports send the parts where they
  /// lie; this default stitches them into one buffer.
  virtual void sendv(std::span<const ConstBytes> parts) { send(gather(parts)); }

  /// Receive exactly `out.size()` bytes; throws hpm::NetError on failure
  /// or premature end of stream, hpm::TimeoutError when a deadline is set
  /// and the bytes do not arrive in time.
  virtual void recv(std::span<std::uint8_t> out) = 0;

  /// Deadline for each subsequent send/recv call (the full call, not per
  /// chunk). Zero — the default — means block without bound.
  virtual void set_timeout(std::chrono::milliseconds timeout) = 0;

  /// Signal end-of-stream to the peer. Idempotent.
  virtual void close() = 0;

  /// Tear the channel down without orderly end-of-stream signalling, as a
  /// crashed host would: the peer observes a broken stream, not a clean
  /// EOF. Defaults to close() where the two are indistinguishable.
  virtual void abort() { close(); }
};

}  // namespace hpm::net
