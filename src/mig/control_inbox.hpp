// Source-side receive pump for one session binding.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "mig/port.hpp"
#include "mig/session.hpp"

namespace hpm::mig {

/// Every inbound frame flows through the SourceSession machine exactly
/// once, in consumption order: the pump queues each frame RAW for the
/// protocol thread, which on_frames a message when it awaits it. An idle
/// TimeoutError on the recv is tolerated — the destination is
/// legitimately silent while it restores — so liveness is enforced by
/// await()'s own deadline, not the port's.
class ControlInbox {
 public:
  ControlInbox(MessagePort& port, SourceSession& session);
  ~ControlInbox();

  /// Abort the port and join the pump. Idempotent; after the first call
  /// the port reference is never touched again, so the port may be
  /// destroyed once stop() returns.
  void stop();

  /// Next message, already validated by session.on_frame().
  /// Throws the machine's ProtocolError/MigrationError for a rejected
  /// frame, the pump's terminal error once the queue drains, or
  /// TimeoutError past `deadline` (zero = wait forever).
  net::Message await(std::chrono::milliseconds deadline);

 private:
  void pump();

  MessagePort& port_;
  SourceSession& session_;
  std::atomic<bool> stopped_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<net::Message> q_;
  std::exception_ptr error_;
  std::thread thread_;
};

}  // namespace hpm::mig
