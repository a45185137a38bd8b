#include "net/mem_channel.hpp"

#include <cstring>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace hpm::net {

namespace {

/// `net.mem.*` transport counters, shared by every MemChannel endpoint.
struct MemMetrics {
  obs::Counter& bytes_sent = obs::Registry::process().counter("net.mem.bytes_sent");
  obs::Counter& bytes_recv = obs::Registry::process().counter("net.mem.bytes_recv");
  obs::Counter& timeouts = obs::Registry::process().counter("net.mem.timeouts");

  static MemMetrics& get() {
    static MemMetrics m;
    return m;
  }
};

}  // namespace

namespace detail {

void MemPipe::write(std::span<const ConstBytes> parts) {
  std::vector<std::uint8_t> unit = gather(parts);
  std::lock_guard lk(mu_);
  if (closed_) throw NetError("write on closed MemPipe");
  if (!unit.empty()) units_.push_back(std::move(unit));
  cv_.notify_all();
}

void MemPipe::read(std::span<std::uint8_t> out, std::chrono::milliseconds timeout) {
  const bool bounded = timeout.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::size_t got = 0;
  std::unique_lock lk(mu_);
  while (got < out.size()) {
    const auto ready = [this] { return !units_.empty() || closed_; };
    if (bounded) {
      if (!cv_.wait_until(lk, deadline, ready)) {
        throw TimeoutError("MemPipe recv timed out with " +
                           std::to_string(out.size() - got) + " bytes outstanding");
      }
    } else {
      cv_.wait(lk, ready);
    }
    if (units_.empty()) {
      throw NetError("MemPipe closed with " + std::to_string(out.size() - got) +
                     " bytes outstanding");
    }
    const std::vector<std::uint8_t>& front = units_.front();
    const std::size_t take = std::min(out.size() - got, front.size() - head_);
    std::memcpy(out.data() + got, front.data() + head_, take);
    got += take;
    head_ += take;
    if (head_ == front.size()) {
      units_.pop_front();
      head_ = 0;
    }
  }
}

void MemPipe::close() {
  std::lock_guard lk(mu_);
  closed_ = true;
  cv_.notify_all();
}

}  // namespace detail

std::pair<std::unique_ptr<MemChannel>, std::unique_ptr<MemChannel>> MemChannel::make_pair() {
  auto a_to_b = std::make_shared<detail::MemPipe>();
  auto b_to_a = std::make_shared<detail::MemPipe>();
  auto a = std::unique_ptr<MemChannel>(new MemChannel(a_to_b, b_to_a));
  auto b = std::unique_ptr<MemChannel>(new MemChannel(b_to_a, a_to_b));
  return {std::move(a), std::move(b)};
}

void MemChannel::sendv(std::span<const ConstBytes> parts) {
  out_->write(parts);
  MemMetrics::get().bytes_sent.add(total_size(parts));
}

void MemChannel::recv(std::span<std::uint8_t> out) {
  try {
    in_->read(out, timeout_);
  } catch (const TimeoutError&) {
    MemMetrics::get().timeouts.add(1);
    throw;
  }
  MemMetrics::get().bytes_recv.add(out.size());
}

void MemChannel::close() {
  out_->close();
  in_->close();
}

}  // namespace hpm::net
