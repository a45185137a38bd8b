#include "mig/control_inbox.hpp"

namespace hpm::mig {

ControlInbox::ControlInbox(MessagePort& port, SourceSession& session)
    : port_(port), session_(session), thread_([this] { pump(); }) {}

ControlInbox::~ControlInbox() { stop(); }

void ControlInbox::stop() {
  if (!stopped_.exchange(true)) {
    try {
      port_.abort();
    } catch (...) {
    }
  }
  if (thread_.joinable()) thread_.join();
}

net::Message ControlInbox::await(std::chrono::milliseconds deadline) {
  std::unique_lock lk(mu_);
  auto ready = [&] { return !q_.empty() || error_ != nullptr; };
  if (deadline.count() > 0) {
    if (!cv_.wait_for(lk, deadline, ready)) {
      throw TimeoutError("timed out waiting for the destination's reply");
    }
  } else {
    cv_.wait(lk, ready);
  }
  if (!q_.empty()) {
    net::Message msg = std::move(q_.front());
    q_.pop_front();
    lk.unlock();
    // The machine sees the frame at the moment the protocol thread
    // consumes it — never out of order with the frames already consumed.
    session_.on_frame(msg);
    return msg;
  }
  std::rethrow_exception(error_);
}

void ControlInbox::pump() {
  try {
    for (;;) {
      net::Message msg;
      try {
        msg = port_.recv();
      } catch (const TimeoutError&) {
        if (stopped_.load()) throw;
        continue;
      }
      std::lock_guard lk(mu_);
      q_.push_back(std::move(msg));
      cv_.notify_all();
    }
  } catch (...) {
    std::lock_guard lk(mu_);
    error_ = std::current_exception();
    cv_.notify_all();
  }
}

}  // namespace hpm::mig
