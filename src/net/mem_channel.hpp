// In-process byte pipe for thread-to-thread migration experiments.
//
// A MemPipe owns one unidirectional queue of sends; MemChannel::make_pair()
// wires two endpoints so the migration source thread and destination
// thread can run the real send/recv protocol without a kernel socket.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "net/channel.hpp"

namespace hpm::net {

namespace detail {

/// Thread-safe unidirectional byte queue with blocking reads.
class MemPipe {
 public:
  /// Queue the concatenation of `parts` as one unit: one copy in.
  void write(std::span<const ConstBytes> parts);
  /// Blocks until `out` is filled; a zero timeout blocks without bound,
  /// otherwise throws hpm::TimeoutError once the deadline passes.
  void read(std::span<std::uint8_t> out, std::chrono::milliseconds timeout);
  void close();

 private:
  // One unit per write (a whole frame from the message layer), read from
  // head_ on and freed once read: each byte is copied once in and once
  // out, and nothing regrows while the reader lags.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::vector<std::uint8_t>> units_;
  std::size_t head_ = 0;
  bool closed_ = false;
};

}  // namespace detail

/// One endpoint of an in-process duplex channel.
class MemChannel final : public ByteChannel {
 public:
  /// Create a connected pair: bytes sent on one endpoint are received on
  /// the other.
  static std::pair<std::unique_ptr<MemChannel>, std::unique_ptr<MemChannel>> make_pair();

  void send(ConstBytes data) override { sendv({&data, 1}); }
  void sendv(std::span<const ConstBytes> parts) override;
  void recv(std::span<std::uint8_t> out) override;
  void set_timeout(std::chrono::milliseconds timeout) override { timeout_ = timeout; }
  void close() override;

 private:
  MemChannel(std::shared_ptr<detail::MemPipe> out, std::shared_ptr<detail::MemPipe> in)
      : out_(std::move(out)), in_(std::move(in)) {}
  std::shared_ptr<detail::MemPipe> out_;
  std::shared_ptr<detail::MemPipe> in_;
  std::chrono::milliseconds timeout_{0};
};

}  // namespace hpm::net
