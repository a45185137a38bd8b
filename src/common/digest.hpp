// The one integrity hash (Digest v2): it digests the migration stream's
// leaves (whose root seals the trailer and is the end-to-end digest, and
// each of which names a dedup chunk and seals its StateChunk frame), seals
// the other frames and journal records (folded to 32 bits) and detects
// changed blocks between incremental checkpoints.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace hpm {

/// The stream's one hash. A leaf digest d_i (one chunk of the canonical
/// stream, msrm/stream.hpp) is computed once per side — by the collect tap
/// on the source, while receiving the StateChunk frame on the destination —
/// and every check derives from it: the frame seal, the dedup chunk address
/// (mig::ChunkAddr, DESIGN.md §15 — stable only because the canonical
/// stream is deterministic for a given process state), and the leaf root
/// that seals the trailer and is the end-to-end digest.
///
/// Four independent 64-bit lanes over 32-byte stripes, each round
/// `acc = rotl(acc + w*P2, 31) * P1` (xxHash64's round and primes), words
/// read little-endian from bytes so the value is host-independent; value()
/// folds the lanes, the length and the zero-padded tail through an
/// avalanche finalizer.
class StreamDigest {
 public:
  void update(std::span<const std::uint8_t> bytes) noexcept;
  /// Digest of everything fed so far. Stable across update() granularity:
  /// one call over the whole stream equals many calls over its chunks.
  [[nodiscard]] std::uint64_t value() const noexcept;

  static std::uint64_t of(std::span<const std::uint8_t> bytes) noexcept {
    StreamDigest d;
    d.update(bytes);
    return d.value();
  }

  /// Bytes every StreamDigest in this process has been fed so far (one
  /// relaxed add per update() call): bytes hashed per migration over its
  /// stream bytes is the pass count DESIGN.md §10 bounds.
  [[nodiscard]] static std::uint64_t hashed_bytes() noexcept;

 private:
  static constexpr std::size_t kStripe = 32;

  /// xxHash64's seed-0 lanes: P1 + P2, P2, 0, -P1.
  std::uint64_t lane_[4] = {0x60EA27EEADC0B5D6ull, 0xC2B2AE3D27D4EB4Full, 0,
                            0x61C8864E7A143579ull};
  std::uint64_t total_ = 0;           ///< bytes fed so far
  std::uint8_t carry_[kStripe] = {};  ///< the first total_ % kStripe bytes of a stripe
};

/// A digest folded to 32 bits (high half XOR low half): the 4-byte seal of
/// a frame (net::seal_frame) and of an intent-journal record. Every bit of
/// the 64-bit value reaches the seal; a damaged record escapes it with
/// probability 2^-32.
[[nodiscard]] inline std::uint32_t fold32(std::uint64_t digest) noexcept {
  return static_cast<std::uint32_t>(digest ^ (digest >> 32));
}

}  // namespace hpm
