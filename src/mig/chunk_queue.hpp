// Bounded handoff between the collecting thread (producer) and the
// sender thread of the pipelined transfer.
//
// The queue carries spans into the collection's own buffer, which never
// moves (MigContext::set_collect_sink): the frame send reads each chunk in
// place. The owner joins the sender before that buffer can go.
//
// The dedup'd path (RunOptions::chunk_cache_dir, DESIGN.md §15) does not
// use this queue: manifest negotiation needs the full stream's addresses
// before anything is sent, so the source collects to completion and
// transmits misses from the finished stream — concurrency buys nothing
// when the first frame already depends on the last chunk.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>

#include "mig/mig_metrics.hpp"
#include "net/message.hpp"

namespace hpm::mig {

/// One collected chunk, in place, and the StreamDigest the collect tap
/// took of it, which seals its StateChunk frame.
struct QueuedChunk {
  std::span<const std::uint8_t> bytes;
  std::uint64_t digest = 0;
};

/// Back-pressure by design: push() blocks while the queue is full, so a
/// slow link throttles collection instead of buffering the heap twice.
/// poison() (sender died, or teardown) turns pushes into drops so
/// collection can finish and unwind normally.
class ChunkQueue {
 public:
  explicit ChunkQueue(std::size_t capacity) : capacity_(capacity) {}

  void push(QueuedChunk chunk) {
    std::unique_lock lk(mu_);
    can_push_.wait(lk, [&] { return q_.size() < capacity_ || poisoned_; });
    if (poisoned_) return;
    q_.push_back(std::move(chunk));
    PipelineMetrics::get().queue_depth.set(static_cast<std::int64_t>(q_.size()));
    can_pop_.notify_one();
  }

  /// False once the queue is closed and drained.
  bool pop(QueuedChunk& out) {
    std::unique_lock lk(mu_);
    can_pop_.wait(lk, [&] { return !q_.empty() || closed_; });
    if (q_.empty()) return false;
    out = std::move(q_.front());
    q_.pop_front();
    PipelineMetrics::get().queue_depth.set(static_cast<std::int64_t>(q_.size()));
    can_push_.notify_one();
    return true;
  }

  /// Close the producer side; `end` (if set) tells the sender to finish
  /// with a StateEnd frame after draining. First close wins.
  void close(std::optional<net::StateEndInfo> end) {
    std::lock_guard lk(mu_);
    if (closed_) return;
    end_ = end;
    closed_ = true;
    can_pop_.notify_all();
  }

  void poison() {
    std::lock_guard lk(mu_);
    poisoned_ = true;
    can_push_.notify_all();
  }

  [[nodiscard]] std::optional<net::StateEndInfo> end_info() const {
    std::lock_guard lk(mu_);
    return end_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<QueuedChunk> q_;
  std::size_t capacity_;
  bool closed_ = false;
  bool poisoned_ = false;
  std::optional<net::StateEndInfo> end_;
};

/// Queue bound: deep enough to ride out send jitter, small enough that a
/// stalled link stops collection after ~capacity chunks of lookahead.
inline constexpr std::size_t kChunkQueueCapacity = 8;

}  // namespace hpm::mig
