#include "net/faulty_channel.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"

namespace hpm::net {

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::None: return "none";
    case FaultKind::Disconnect: return "disconnect";
    case FaultKind::Corrupt: return "corrupt";
    case FaultKind::Stall: return "stall";
    case FaultKind::Truncate: return "truncate";
    case FaultKind::CorruptMasked: return "corrupt-masked";
    case FaultKind::Kill: return "kill";
    case FaultKind::KillOnRecv: return "kill-on-recv";
  }
  return "?";
}

FaultPlan FaultPlan::random(std::uint64_t seed) {
  Rng rng(seed);
  FaultPlan plan;
  // None is excluded: a random plan is always a real fault.
  plan.kind = static_cast<FaultKind>(1 + rng.next_below(4));
  // Past the 5-byte frame header, inside a typical State payload.
  plan.offset = 6 + rng.next_below(512);
  plan.length = 1 + rng.next_below(16);
  plan.stall_seconds = 0.05 + 0.25 * rng.next_double();
  return plan;
}

void FaultyChannel::sendv(std::span<const ConstBytes> parts) {
  if (dead_) throw NetError("send on disconnected FaultyChannel");
  const std::size_t size = total_size(parts);
  if (truncating_) {
    sent_ += size;
    ++frames_;
    return;  // the fault already swallowed the tail of the stream
  }
  // Kill triggers on frame count, not byte offset: one send() is one
  // protocol frame, so frame_offset pins the crash to a protocol state.
  if (plan_.kind == FaultKind::Kill && armed() && !fired_ && frames_ >= plan_.frame_offset) {
    fired_ = true;
    state_->firings += 1;
    dead_ = true;
    inner_->abort();
    throw KilledError("injected crash: endpoint killed before frame " +
                      std::to_string(frames_ + 1));
  }
  const std::uint64_t begin = sent_;
  const std::uint64_t end = begin + size;
  if (plan_.kind == FaultKind::Kill || plan_.kind == FaultKind::KillOnRecv || !armed() ||
      fired_ || end <= plan_.offset) {
    sent_ = end;
    inner_->sendv(parts);
    ++frames_;
    return;
  }

  // The fault offset lies inside (or at the end of) this send: the frame
  // is stitched whole, so offsets count across its parts. A stall only
  // delays the parts and needs no stitched frame.
  fired_ = true;
  state_->firings += 1;
  const std::size_t clean = static_cast<std::size_t>(plan_.offset - begin);
  std::vector<std::uint8_t> frame;
  if (plan_.kind != FaultKind::Stall) frame = gather(parts);
  switch (plan_.kind) {
    case FaultKind::Disconnect:
      if (clean > 0) inner_->send(std::span(frame).first(clean));
      dead_ = true;
      inner_->abort();
      throw NetError("injected fault: disconnect after " + std::to_string(plan_.offset) +
                     " bytes");
    case FaultKind::Truncate:
      if (clean > 0) inner_->send(std::span(frame).first(clean));
      truncating_ = true;
      sent_ = end;
      ++frames_;
      return;
    case FaultKind::Stall:
      // An injected stall must respect the channel deadline: with a
      // pipelined sender thread behind this channel, sleeping past the
      // deadline and then delivering would hide the stall from the
      // sender (only the peer's recv would time out) — or hang outright
      // when no peer is reading. Sleep up to the deadline, then surface
      // the overrun as the TimeoutError a real deadlined send would give.
      // Tag the overrun and count every firing in net.faults.stalls_hit:
      // a chaos harness asserting "no real hangs" must be able to tell an
      // injected stall's timeout from an organic one.
      obs::Registry::process().counter("net.faults.stalls_hit").add(1);
      if (timeout_.count() > 0 &&
          std::chrono::duration<double>(plan_.stall_seconds) >= timeout_) {
        std::this_thread::sleep_for(timeout_);
        throw TimeoutError("[injected-stall] injected stall exceeded the " +
                           std::to_string(timeout_.count()) + " ms send deadline");
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(plan_.stall_seconds));
      sent_ = end;
      inner_->sendv(parts);
      ++frames_;
      return;
    case FaultKind::Corrupt: {
      const std::size_t stop = std::min<std::uint64_t>(clean + plan_.length, frame.size());
      for (std::size_t i = clean; i < stop; ++i) frame[i] ^= 0xA5u;
      sent_ = end;
      inner_->send(frame);
      ++frames_;
      return;
    }
    case FaultKind::CorruptMasked:
      // Flip the payload byte, then re-seal the frame so the framing
      // layer accepts the damage. Valid because the message layer ships
      // exactly one frame per send.
      if (frame.size() >= 10 && clean >= 5 && clean < frame.size() - 4) {
        frame[clean] ^= 0xA5u;
        seal_frame(frame);
      }
      sent_ = end;
      inner_->send(frame);
      ++frames_;
      return;
    case FaultKind::Kill:        // handled above (frame-counted, not byte-counted)
    case FaultKind::KillOnRecv:  // fires in recv()
    case FaultKind::None:        // unreachable: armed() excludes None
      break;
  }
  sent_ = end;
  inner_->sendv(parts);
  ++frames_;
}

void FaultyChannel::recv(std::span<std::uint8_t> out) {
  if (plan_.kind == FaultKind::KillOnRecv && armed() && !fired_ &&
      received_ + out.size() > plan_.offset) {
    fired_ = true;
    state_->firings += 1;
    dead_ = true;
    inner_->abort();
    throw KilledError("injected crash: endpoint killed after receiving " +
                      std::to_string(received_) + " bytes");
  }
  inner_->recv(out);
  received_ += out.size();
}

void FaultyChannel::close() {
  if (dead_) return;  // a disconnected channel cannot signal orderly EOF
  inner_->close();
}

void FaultyChannel::abort() {
  if (dead_) return;
  dead_ = true;
  inner_->abort();
}

}  // namespace hpm::net
