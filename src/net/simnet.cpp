#include "net/simnet.hpp"

#include <cmath>
#include <thread>

namespace hpm::net {

double SimulatedLink::transfer_seconds(std::uint64_t bytes) const noexcept {
  if (bytes == 0) return latency_s;
  const double frames = std::ceil(static_cast<double>(bytes) / static_cast<double>(mtu));
  const double wire_bytes = static_cast<double>(bytes) + frames * frame_overhead;
  return latency_s + wire_bytes * 8.0 / bandwidth_bps;
}

void ThrottledChannel::sendv(std::span<const ConstBytes> parts) {
  // A frame that starts while the link is still busy streams back-to-back
  // with its predecessor, so its propagation delay overlaps the
  // predecessor's transmission — only an idle link charges latency again.
  // Pacing against the absolute busy-horizon (sleep_until, not a per-call
  // sleep_for) keeps scheduler overshoot from accumulating across the
  // thousands of frames a chunked transfer emits.
  const auto now = std::chrono::steady_clock::now();
  // "Still streaming" tolerates a small scheduler-overshoot window past
  // the horizon: a sender that wakes late from sleep_until must stay on
  // the ideal schedule (and catch up with an immediate-return sleep), or
  // every frame would re-pay latency and re-accumulate the overshoot.
  const auto slack = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(link_.latency_s + 2e-3));
  const bool streaming = now < busy_until_ + slack;
  double dt = link_.transfer_seconds(total_size(parts));
  if (streaming) dt -= link_.latency_s;
  modeled_send_s_ += dt;
  const auto start = streaming ? busy_until_ : now;
  busy_until_ =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(dt));
  std::this_thread::sleep_until(busy_until_);
  inner_->sendv(parts);
}

void ThrottledChannel::recv(std::span<std::uint8_t> out) { inner_->recv(out); }

void ThrottledChannel::close() { inner_->close(); }

}  // namespace hpm::net
