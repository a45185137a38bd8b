// MessagePort: the session-level transport seam.
//
// The protocol endpoints (SourceSession/DestSession drivers) exchange
// whole frames, never raw bytes, so their seam is a frame-granular port,
// not a ByteChannel. DirectPort owns one channel outright and speaks the
// one frame layout (net/message.hpp); SeveringPort and BlackholePort wrap
// a port to script a link fault at an exact frame. The endpoints cannot
// tell a wrapped port from a plain one, which is exactly the point.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <thread>

#include "common/error.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"

namespace hpm::mig {

/// Frame-granular, full-duplex endpoint of one migration session. Like
/// ByteChannel, blocking and thread-compatible for one sender plus one
/// receiver thread; send/recv throw hpm::NetError (TimeoutError past a
/// set_timeout deadline) on failure.
class MessagePort {
 public:
  virtual ~MessagePort() = default;

  virtual void send(net::MsgType type, std::span<const std::uint8_t> payload) = 0;
  /// One StateChunk sealed from `body_digest`, the body's StreamDigest the
  /// caller holds (net::send_state_chunk): the same frame send() would
  /// make of encode_state_chunk(seq, body), without hashing the body.
  virtual void send_chunk(std::uint32_t seq, std::span<const std::uint8_t> body,
                          std::uint64_t body_digest) = 0;
  virtual net::Message recv() = 0;

  /// Deadline for each subsequent send/recv (0 = block without bound).
  virtual void set_timeout(std::chrono::milliseconds timeout) = 0;

  /// Orderly teardown. Idempotent.
  virtual void close() = 0;

  /// Teardown that wakes a peer blocked mid-recv with an error instead of
  /// a clean end-of-stream.
  virtual void abort() { close(); }
};

/// Exclusive ownership of one ByteChannel: one session, one channel, so
/// frames go out with no session tag.
class DirectPort final : public MessagePort {
 public:
  /// `keepalive` rides along for transport plumbing that must outlive the
  /// conversation (e.g. the socket listener that accepted the channel).
  explicit DirectPort(std::unique_ptr<net::ByteChannel> ch,
                      std::shared_ptr<void> keepalive = nullptr)
      : ch_(std::move(ch)), keepalive_(std::move(keepalive)) {}

  void send(net::MsgType type, std::span<const std::uint8_t> payload) override {
    net::send_message(*ch_, type, payload);
  }
  void send_chunk(std::uint32_t seq, std::span<const std::uint8_t> body,
                  std::uint64_t body_digest) override {
    net::send_state_chunk(*ch_, seq, body, body_digest);
  }
  net::Message recv() override { return net::recv_message(*ch_); }
  void set_timeout(std::chrono::milliseconds timeout) override { ch_->set_timeout(timeout); }
  void close() override { ch_->close(); }
  void abort() override { ch_->abort(); }

 private:
  std::unique_ptr<net::ByteChannel> ch_;
  std::shared_ptr<void> keepalive_;
};

/// Deterministic link-failure injection at the session layer: forwards
/// `frames_before_cut` port operations, then every further send/recv
/// throws hpm::NetError — the frame-granular analogue of a mid-stream
/// disconnect. Unlike a byte-level FaultyChannel kill it counts whole
/// frames, sends and recvs alike, so a sweep over the count reaches every
/// protocol step.
class SeveringPort final : public MessagePort {
 public:
  SeveringPort(std::unique_ptr<MessagePort> inner, std::uint32_t frames_before_cut)
      : inner_(std::move(inner)), remaining_(frames_before_cut) {}

  void send(net::MsgType type, std::span<const std::uint8_t> payload) override {
    spend();
    inner_->send(type, payload);
  }
  void send_chunk(std::uint32_t seq, std::span<const std::uint8_t> body,
                  std::uint64_t body_digest) override {
    spend();
    inner_->send_chunk(seq, body, body_digest);
  }
  net::Message recv() override {
    spend();
    return inner_->recv();
  }
  void set_timeout(std::chrono::milliseconds timeout) override {
    inner_->set_timeout(timeout);
  }
  void close() override { inner_->close(); }
  void abort() override { inner_->abort(); }

 private:
  void spend() {
    // fetch_sub walks remaining_ below zero for late callers; any
    // non-positive ticket means the link is already gone.
    if (remaining_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      throw NetError("injected link severance: session port cut mid-stream");
    }
  }

  std::unique_ptr<MessagePort> inner_;
  std::atomic<std::int64_t> remaining_;
};

/// Deterministic WEDGE injection: forwards `ops_before_wedge` port
/// operations, then sends vanish silently and recvs starve — the
/// channel stays healthy but the session makes no progress. Unlike a
/// SeveringPort failure nothing errors on its own: only the per-IO
/// deadline (RunOptions::io_timeout_seconds) ends the wait.
///
/// The starved recv honors the port deadline (TimeoutError) and
/// abort()/close() (NetError) — a fault fixture must never be the thing
/// that actually hangs the harness.
class BlackholePort final : public MessagePort {
 public:
  BlackholePort(std::unique_ptr<MessagePort> inner, std::uint32_t ops_before_wedge)
      : inner_(std::move(inner)), remaining_(ops_before_wedge) {}

  void send(net::MsgType type, std::span<const std::uint8_t> payload) override {
    if (spend()) inner_->send(type, payload);
  }
  void send_chunk(std::uint32_t seq, std::span<const std::uint8_t> body,
                  std::uint64_t body_digest) override {
    if (spend()) inner_->send_chunk(seq, body, body_digest);
  }

  net::Message recv() override {
    if (spend()) return inner_->recv();
    const auto started = std::chrono::steady_clock::now();
    for (;;) {
      if (wounded_.load(std::memory_order_acquire)) {
        throw NetError("injected wedge: port aborted while starving a recv");
      }
      const auto timeout = timeout_.load(std::memory_order_relaxed);
      if (timeout > 0 && std::chrono::steady_clock::now() - started >=
                             std::chrono::milliseconds(timeout)) {
        throw TimeoutError("injected wedge: recv starved past its deadline");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void set_timeout(std::chrono::milliseconds timeout) override {
    timeout_.store(timeout.count(), std::memory_order_relaxed);
    inner_->set_timeout(timeout);
  }

  void close() override {
    wounded_.store(true, std::memory_order_release);
    inner_->close();
  }

  void abort() override {
    wounded_.store(true, std::memory_order_release);
    inner_->abort();
  }

 private:
  bool spend() {
    return remaining_.fetch_sub(1, std::memory_order_relaxed) > 0;
  }

  std::unique_ptr<MessagePort> inner_;
  std::atomic<std::int64_t> remaining_;
  std::atomic<long long> timeout_{0};
  std::atomic<bool> wounded_{false};
};

/// A connected source/destination port pair: one binding of a session.
struct PortPair {
  std::unique_ptr<MessagePort> source;
  std::unique_ptr<MessagePort> destination;
};

/// How a session reaches its peer. Every connect() call yields a fresh
/// pair over a brand-new physical channel (exclusive_wiring, fleet.hpp),
/// so a resumed binding never shares a byte with the one it replaces.
struct SessionWiring {
  std::uint32_t session_id = 0;
  std::function<PortPair()> connect;

  /// Failover dial: a fresh port pair to standby candidate `k` (an index
  /// into FailoverPolicy::standbys), over its own brand-new channel.
  /// Null = the wiring cannot reach standbys, so destination failover is
  /// disabled regardless of policy.
  std::function<PortPair(std::size_t)> connect_standby;
};

}  // namespace hpm::mig
