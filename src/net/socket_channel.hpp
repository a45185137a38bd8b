// TCP transport (the paper's primary transfer option), loopback-friendly.
//
// SocketListener binds an ephemeral port on 127.0.0.1; connect_to() dials
// it. Both sides then speak the blocking ByteChannel protocol over a real
// kernel socket, so the full systems path (connect, frame, send, recv,
// shutdown) stays exercised even in single-machine experiments.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "net/channel.hpp"

namespace hpm::net {

/// Connected TCP byte stream.
class SocketChannel final : public ByteChannel {
 public:
  explicit SocketChannel(int fd) noexcept : fd_(fd) {}
  ~SocketChannel() override;

  SocketChannel(const SocketChannel&) = delete;
  SocketChannel& operator=(const SocketChannel&) = delete;

  void send(ConstBytes data) override { sendv({&data, 1}); }
  /// One writev-style sendmsg per readiness wake-up, across the parts.
  void sendv(std::span<const ConstBytes> parts) override;
  void recv(std::span<std::uint8_t> out) override;
  void set_timeout(std::chrono::milliseconds timeout) override { timeout_ = timeout; }
  void close() override;

 private:
  // close() may race a peer thread blocked in send/recv (abort() is the
  // documented cross-thread wake-up), so the fd is never torn down while
  // in use: close() only shutdown()s it — which wakes any poller — and
  // the destructor, which runs after every user is done, close()s it.
  int fd_ = -1;  ///< written only by the constructor
  std::atomic<bool> closed_{false};
  std::chrono::milliseconds timeout_{0};
};

/// Listening endpoint on 127.0.0.1 with a kernel-assigned port.
class SocketListener {
 public:
  SocketListener();
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Port the kernel assigned.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Block until a peer connects; returns the accepted channel.
  std::unique_ptr<SocketChannel> accept();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Dial 127.0.0.1:port.
std::unique_ptr<SocketChannel> connect_to(std::uint16_t port);

}  // namespace hpm::net
