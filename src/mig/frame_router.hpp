// FrameRouter: one shared ByteChannel, N live migration sessions.
//
// Each endpoint of a multiplexed channel owns a router. The router's pump
// thread reads session-tagged (v4) frames off the wire (an untagged or
// otherwise malformed frame is a typed error that fails every port) and
// demultiplexes them into per-session queues; open(session_id) hands out
// a MessagePort (port.hpp) bound to that session's CURRENT epoch, so the
// protocol endpoints drive a routed session with exactly the code they
// use on an exclusive channel.
//
// Epochs make resume safe on a channel that never dies: calling open()
// again for a live session bumps its epoch, wakes any receiver still
// blocked on the old port with a NetError (the routed analogue of a
// dropped connection), discards queued frames from the old binding, and
// drops any old-epoch frame still in flight. Without the epoch check, a
// stale StateChunk buffered in the shared channel could splice itself
// into the resumed stream — the byte-level equivalent was impossible
// because a dead channel took its buffer with it.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "mig/port.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"

namespace hpm::mig {

class FrameRouter {
 public:
  /// Takes ownership of one endpoint of the shared channel and starts the
  /// rx pump. `keepalive` rides along for transport plumbing that must
  /// outlive the conversation (e.g. a socket listener).
  explicit FrameRouter(std::unique_ptr<net::ByteChannel> ch,
                       std::shared_ptr<void> keepalive = nullptr);

  FrameRouter(const FrameRouter&) = delete;
  FrameRouter& operator=(const FrameRouter&) = delete;

  ~FrameRouter();

  /// Bind a port to `session_id`'s next epoch. The first open creates the
  /// session; every further open is a resume: the previous epoch's port
  /// is superseded (its blocked recv wakes with NetError, its queued
  /// frames are discarded) and in-flight frames it sent or was owed are
  /// dropped on arrival.
  std::unique_ptr<MessagePort> open(std::uint32_t session_id);

  /// Abort the channel, join the pump, and fail every open port. Called
  /// by the destructor; safe to call early and repeatedly.
  void shutdown();

  /// Epoch-checked plumbing behind the ports open() hands out. Public
  /// only for them — protocol endpoints talk MessagePort, never this.
  void send_from(std::uint32_t session, std::uint16_t epoch, net::MsgType type,
                 std::span<const std::uint8_t> payload);
  net::Message recv_for(std::uint32_t session, std::uint16_t epoch,
                        std::chrono::milliseconds timeout);
  void close_port(std::uint32_t session, std::uint16_t epoch);

 private:
  struct Entry {
    std::uint16_t epoch = 0;       ///< current binding; lower = stale
    std::deque<net::Message> q;    ///< frames awaiting recv_for
    bool closed = false;           ///< current epoch's port closed itself
  };

  void pump();

  std::unique_ptr<net::ByteChannel> ch_;
  std::shared_ptr<void> keepalive_;

  std::mutex tx_mu_;  ///< serializes sends from N session threads

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint32_t, Entry> sessions_;
  std::exception_ptr error_;  ///< terminal channel failure, rethrown to all
  bool shutdown_ = false;

  obs::Counter& routed_;
  obs::Counter& dropped_;
  obs::Counter& reopens_;

  std::thread thread_;
};

}  // namespace hpm::mig
