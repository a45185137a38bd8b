// Deterministic network model for Tx-time accounting.
//
// The paper reports migration time as Collect + Tx + Restore measured on
// 10 Mb/s and 100 Mb/s Ethernet. We cannot reproduce the authors' wires,
// so Tx is modeled: latency + bytes / bandwidth (+ optional per-MTU
// protocol overhead). The model is used two ways: (1) pure accounting for
// benchmark tables, and (2) a ThrottledChannel decorator that delays a
// real channel so end-to-end runs feel the modeled network.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "net/channel.hpp"

namespace hpm::net {

/// Point-to-point link model.
struct SimulatedLink {
  double bandwidth_bps = 100e6;   ///< payload bandwidth, bits/second
  double latency_s = 100e-6;      ///< one-way latency per message
  std::uint32_t mtu = 1500;       ///< frame size for per-frame overhead
  std::uint32_t frame_overhead = 58;  ///< Ethernet+IP+TCP header bytes per frame

  /// Seconds to move `bytes` of payload across the link.
  [[nodiscard]] double transfer_seconds(std::uint64_t bytes) const noexcept;

  /// The paper's two testbeds.
  static SimulatedLink ethernet_10mbps() { return {10e6, 500e-6, 1500, 58}; }
  static SimulatedLink ethernet_100mbps() { return {100e6, 100e-6, 1500, 58}; }
};

/// Decorator that adds modeled delay to an underlying channel, so
/// wall-clock Tx in end-to-end experiments matches the link model.
class ThrottledChannel final : public ByteChannel {
 public:
  ThrottledChannel(std::unique_ptr<ByteChannel> inner, SimulatedLink link)
      : inner_(std::move(inner)), link_(link) {}

  void send(ConstBytes data) override { sendv({&data, 1}); }
  void sendv(std::span<const ConstBytes> parts) override;
  void recv(std::span<std::uint8_t> out) override;
  void set_timeout(std::chrono::milliseconds timeout) override {
    inner_->set_timeout(timeout);
  }
  void close() override;
  void abort() override { inner_->abort(); }

  [[nodiscard]] double modeled_send_seconds() const noexcept { return modeled_send_s_; }

 private:
  std::unique_ptr<ByteChannel> inner_;
  SimulatedLink link_;
  double modeled_send_s_ = 0;
  /// When the modeled link finishes transmitting everything sent so far;
  /// a send landing before this streams (no extra propagation latency).
  std::chrono::steady_clock::time_point busy_until_{};
};

}  // namespace hpm::net
