// Deterministic fault injection for the migration transport.
//
// FaultyChannel decorates a ByteChannel's send path and injects exactly
// the failures a real network produces — disconnects, corruption, stalls,
// truncated frames — at a byte offset fixed by a FaultPlan (and, for
// KillOnRecv, its receive path at a received-byte offset), so every
// failure mode the coordinator must survive is reproducible in CI. A plan
// fires a bounded number of times (shared across reconnect attempts via
// FaultState), which lets tests script "attempt 1 fails, attempt 2 is
// clean" and observe the retry machinery succeed.
#pragma once

#include <cstdint>
#include <memory>

#include "net/channel.hpp"

namespace hpm::net {

enum class FaultKind : std::uint8_t {
  None = 0,
  Disconnect,  ///< deliver `offset` bytes, then tear the channel down mid-send
  Corrupt,     ///< flip `length` bytes starting at `offset`, keep delivering
  Stall,       ///< sleep `stall_seconds` when `offset` is reached (peer deadline fires)
  Truncate,    ///< deliver `offset` bytes, silently discard the rest, close cleanly
  /// Flip one payload byte at `offset` and RE-SEAL the frame
  /// (net::seal_frame) so the framing layer accepts the damaged frame.
  /// Models corruption below the seal (bad RAM, a buggy conversion layer):
  /// only an end-to-end digest can catch it. Relies on the message layer
  /// shipping one whole frame per send() call.
  CorruptMasked,
  /// Process death: after `frame_offset` successful sends (a gathered
  /// sendv() is one send), the
  /// next send throws hpm::KilledError and tears the channel down. The
  /// "crashed" endpoint runs no recovery code of its own — arbitration
  /// falls to the intent journals. One send() is one protocol frame, so
  /// frame_offset scripts a crash at an exact protocol state.
  Kill,
  /// Process death on the receive path, the mirror of Disconnect's send
  /// offset: once `offset` bytes were received intact, the recv that
  /// would read past them throws hpm::KilledError and tears the channel
  /// down. A frame boundary as `offset` kills an endpoint after exactly
  /// the frames it holds, e.g. a destination mid-stream after chunk i.
  KillOnRecv,
};

/// Human-readable fault name ("disconnect", "corrupt", ...).
const char* fault_kind_name(FaultKind kind) noexcept;

struct FaultPlan {
  FaultKind kind = FaultKind::None;
  /// Sent-byte offset (per attempt) where the fault triggers; received
  /// bytes for KillOnRecv.
  std::uint64_t offset = 0;
  std::uint64_t length = 1;   ///< corrupted span for Corrupt
  double stall_seconds = 0.5; ///< sleep duration for Stall
  /// Kill only: frames (send() calls) delivered intact before the crash.
  std::uint64_t frame_offset = 0;
  /// Attempts that experience the fault; later attempts see a clean
  /// channel. Set above the coordinator's retry budget to script
  /// unrecoverable outages.
  int max_firings = 1;

  [[nodiscard]] bool enabled() const noexcept { return kind != FaultKind::None; }

  /// Crash this endpoint when it tries to send its (n+1)-th frame —
  /// deterministic kill-points for the journal-recovery matrix.
  static FaultPlan kill_after(std::uint64_t n_frames) {
    FaultPlan plan;
    plan.kind = FaultKind::Kill;
    plan.frame_offset = n_frames;
    return plan;
  }

  /// Seedable plan generator: the same seed always yields the same plan,
  /// so a failing fuzz case is reproducible from its seed alone.
  static FaultPlan random(std::uint64_t seed);
};

/// Firing counter shared by the FaultyChannel instances of successive
/// connection attempts (each attempt gets a fresh channel; the plan's
/// firing budget spans them).
struct FaultState {
  int firings = 0;
};

class FaultyChannel final : public ByteChannel {
 public:
  FaultyChannel(std::unique_ptr<ByteChannel> inner, FaultPlan plan,
                std::shared_ptr<FaultState> state = nullptr)
      : inner_(std::move(inner)),
        plan_(plan),
        state_(state ? std::move(state) : std::make_shared<FaultState>()) {}

  void send(ConstBytes data) override { sendv({&data, 1}); }
  /// One call is one frame; byte offsets count across its parts.
  void sendv(std::span<const ConstBytes> parts) override;
  void recv(std::span<std::uint8_t> out) override;
  void set_timeout(std::chrono::milliseconds timeout) override {
    timeout_ = timeout;
    inner_->set_timeout(timeout);
  }
  void close() override;
  void abort() override;

  [[nodiscard]] const std::shared_ptr<FaultState>& state() const noexcept { return state_; }

 private:
  [[nodiscard]] bool armed() const noexcept {
    return plan_.enabled() && state_->firings < plan_.max_firings;
  }

  std::unique_ptr<ByteChannel> inner_;
  FaultPlan plan_;
  std::shared_ptr<FaultState> state_;
  std::uint64_t sent_ = 0;     ///< bytes pushed through this channel instance
  std::uint64_t frames_ = 0;   ///< send() calls completed on this instance
  std::uint64_t received_ = 0; ///< bytes recv() delivered on this instance
  std::chrono::milliseconds timeout_{0};  ///< mirror of the configured deadline
  bool fired_ = false;         ///< this instance already applied its fault
  bool dead_ = false;          ///< post-Disconnect: swallow I/O, skip orderly close
  bool truncating_ = false;    ///< post-Truncate: discard the rest of the stream
};

}  // namespace hpm::net
