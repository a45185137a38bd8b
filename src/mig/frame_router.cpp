#include "mig/frame_router.hpp"

#include "common/error.hpp"

namespace hpm::mig {

namespace {

/// The routed flavour of MessagePort: every frame out is tagged with the
/// port's (session, epoch); every frame in was queued by the router's
/// pump for exactly that binding.
class RouterPort final : public MessagePort {
 public:
  RouterPort(FrameRouter& router, std::uint32_t session, std::uint16_t epoch)
      : router_(router), session_(session), epoch_(epoch) {}

  ~RouterPort() override { close(); }

  void send(net::MsgType type, std::span<const std::uint8_t> payload) override {
    router_.send_from(session_, epoch_, type, payload);
  }

  net::Message recv() override { return router_.recv_for(session_, epoch_, timeout_); }

  void set_timeout(std::chrono::milliseconds timeout) override { timeout_ = timeout; }

  void close() override { router_.close_port(session_, epoch_); }

 private:
  FrameRouter& router_;
  std::uint32_t session_;
  std::uint16_t epoch_;
  std::chrono::milliseconds timeout_{0};
};

}  // namespace

FrameRouter::FrameRouter(std::unique_ptr<net::ByteChannel> ch,
                         std::shared_ptr<void> keepalive)
    : ch_(std::move(ch)),
      keepalive_(std::move(keepalive)),
      routed_(obs::Registry::process().counter("mig.router.frames_routed")),
      dropped_(obs::Registry::process().counter("mig.router.frames_dropped")),
      reopens_(obs::Registry::process().counter("mig.router.reopens")),
      thread_([this] { pump(); }) {}

FrameRouter::~FrameRouter() { shutdown(); }

std::unique_ptr<MessagePort> FrameRouter::open(std::uint32_t session_id) {
  std::lock_guard lk(mu_);
  if (shutdown_) throw NetError("frame router is shut down");
  Entry& e = sessions_[session_id];
  if (e.epoch != 0) {
    // A resume: retire the old binding. Frames queued for it are from a
    // superseded conversation; a recv still parked on it must wake and
    // fail like a dropped connection would have.
    reopens_.add(1);
    e.q.clear();
  }
  ++e.epoch;
  e.closed = false;
  cv_.notify_all();
  return std::make_unique<RouterPort>(*this, session_id, e.epoch);
}

void FrameRouter::shutdown() {
  {
    std::lock_guard lk(mu_);
    if (!shutdown_) {
      shutdown_ = true;
      try {
        ch_->abort();  // wake the pump's blocked recv
      } catch (...) {
      }
      cv_.notify_all();
    }
  }
  if (thread_.joinable()) thread_.join();
}

void FrameRouter::pump() {
  try {
    for (;;) {
      net::TaggedMessage frame = net::recv_tagged_message(*ch_);
      std::lock_guard lk(mu_);
      if (shutdown_) return;
      auto it = sessions_.find(frame.session_id);
      if (it == sessions_.end() || frame.epoch != it->second.epoch ||
          it->second.closed) {
        // Unknown session, a stale epoch's leftover, or a port that
        // already hung up: dropping is the correct routed analogue of the
        // bytes dying with a closed exclusive channel.
        dropped_.add(1);
        continue;
      }
      it->second.q.push_back(std::move(frame.msg));
      routed_.add(1);
      cv_.notify_all();
    }
  } catch (...) {
    std::lock_guard lk(mu_);
    if (error_ == nullptr) error_ = std::current_exception();
    cv_.notify_all();
  }
}

void FrameRouter::send_from(std::uint32_t session, std::uint16_t epoch,
                            net::MsgType type, std::span<const std::uint8_t> payload) {
  {
    std::lock_guard lk(mu_);
    if (shutdown_) throw NetError("frame router is shut down");
    if (error_ != nullptr) std::rethrow_exception(error_);
    auto it = sessions_.find(session);
    if (it == sessions_.end() || it->second.epoch != epoch) {
      throw NetError("session port superseded by a newer epoch");
    }
  }
  std::lock_guard tx(tx_mu_);
  net::send_tagged_message(*ch_, session, epoch, type, payload);
}

net::Message FrameRouter::recv_for(std::uint32_t session, std::uint16_t epoch,
                                   std::chrono::milliseconds timeout) {
  std::unique_lock lk(mu_);
  auto ready = [&] {
    if (shutdown_ || error_ != nullptr) return true;
    auto it = sessions_.find(session);
    if (it == sessions_.end() || it->second.epoch != epoch || it->second.closed) {
      return true;  // superseded or closed: wake to fail
    }
    return !it->second.q.empty();
  };
  if (timeout.count() > 0) {
    if (!cv_.wait_for(lk, timeout, ready)) {
      throw TimeoutError("session port recv exceeded its deadline");
    }
  } else {
    cv_.wait(lk, ready);
  }
  auto it = sessions_.find(session);
  if (it != sessions_.end() && it->second.epoch == epoch && !it->second.q.empty()) {
    net::Message msg = std::move(it->second.q.front());
    it->second.q.pop_front();
    return msg;
  }
  if (shutdown_) throw NetError("frame router is shut down");
  if (it == sessions_.end() || it->second.epoch != epoch) {
    throw NetError("session port superseded by a newer epoch");
  }
  if (it->second.closed) throw NetError("session port closed");
  std::rethrow_exception(error_);
}

void FrameRouter::close_port(std::uint32_t session, std::uint16_t epoch) {
  std::lock_guard lk(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end() || it->second.epoch != epoch) return;  // already superseded
  it->second.closed = true;
  cv_.notify_all();
}

}  // namespace hpm::mig
