// The retained canonical stream behind resume and failover.
//
// A pipelined transaction must be able to retransmit any chunk of the
// collected stream until the destination's Committed is confirmed: resume
// replays the tail past the chunk count the destination announces in its
// ResumeHello, and destination failover replays [0, end) at a standby.
// RetainedStream keeps the bytes in memory, immutable from the moment
// collection finishes, with the collect tap's chunk digests beside them
// (8 bytes per chunk), so a replay seals its frames and a manifest names
// its chunks without hashing the stream again.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hexdump.hpp"

namespace hpm::mig {

/// Thread-safety: none needed — set once by the collection thread, read
/// by the sender loop after a happens-before (the coordinator joins the
/// collection before any retransmit).
class RetainedStream {
 public:
  /// Adopt the collected stream and the StreamDigest of each of its
  /// chunks, in order (MigContext::chunk_digests()).
  void set(Bytes stream, std::vector<std::uint64_t> chunk_digests) {
    bytes_ = std::move(stream);
    chunk_digests_ = std::move(chunk_digests);
  }

  /// The collect tap's digest of chunk `seq`. Throws hpm::MigrationError
  /// past the last one.
  [[nodiscard]] std::uint64_t chunk_digest(std::uint64_t seq) const {
    if (seq >= chunk_digests_.size()) {
      throw MigrationError("retained stream holds no digest for chunk " + std::to_string(seq));
    }
    return chunk_digests_[seq];
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept { return bytes_; }

  /// Move the stream out — local completion restores from it in place.
  [[nodiscard]] Bytes take() noexcept { return std::move(bytes_); }

  [[nodiscard]] std::uint64_t size() const noexcept { return bytes_.size(); }

 private:
  Bytes bytes_;
  std::vector<std::uint64_t> chunk_digests_;
};

}  // namespace hpm::mig
