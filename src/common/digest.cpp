#include "common/digest.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

namespace hpm {

namespace {

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;  // xxHash64's primes
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;

/// Little-endian u64 at `p`, assembled from bytes: no alignment or host
/// byte-order assumption (one load on LE hosts).
inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(p[0]) | (static_cast<std::uint64_t>(p[1]) << 8) |
         (static_cast<std::uint64_t>(p[2]) << 16) | (static_cast<std::uint64_t>(p[3]) << 24) |
         (static_cast<std::uint64_t>(p[4]) << 32) | (static_cast<std::uint64_t>(p[5]) << 40) |
         (static_cast<std::uint64_t>(p[6]) << 48) | (static_cast<std::uint64_t>(p[7]) << 56);
}

inline std::uint64_t lane_round(std::uint64_t acc, std::uint64_t w) noexcept {
  return std::rotl(acc + w * kP2, 31) * kP1;
}

std::atomic<std::uint64_t> g_hashed_bytes{0};

}  // namespace

void StreamDigest::update(std::span<const std::uint8_t> bytes) noexcept {
  const std::uint8_t* p = bytes.data();
  std::size_t left = bytes.size();
  if (left == 0) return;
  g_hashed_bytes.fetch_add(left, std::memory_order_relaxed);
  const std::size_t fill = total_ % kStripe;
  total_ += left;
  if (fill != 0) {
    // Complete the carried partial stripe first, so the lanes see the
    // same 32-byte stripes however the input is split.
    const std::size_t take = std::min(kStripe - fill, left);
    std::memcpy(carry_ + fill, p, take);
    p += take;
    left -= take;
    if (fill + take < kStripe) return;
    for (int i = 0; i < 4; ++i) lane_[i] = lane_round(lane_[i], load_le64(carry_ + 8 * i));
  }
  // Four independent multiply chains in named locals (the input bytes may
  // alias lane_): one stripe's rounds overlap in the pipeline instead of
  // serializing like a byte-at-a-time hash.
  std::uint64_t a = lane_[0], b = lane_[1], c = lane_[2], d = lane_[3];
  for (; left >= kStripe; left -= kStripe, p += kStripe) {
    a = lane_round(a, load_le64(p));
    b = lane_round(b, load_le64(p + 8));
    c = lane_round(c, load_le64(p + 16));
    d = lane_round(d, load_le64(p + 24));
  }
  lane_[0] = a, lane_[1] = b, lane_[2] = c, lane_[3] = d;
  if (left != 0) std::memcpy(carry_, p, left);
}

std::uint64_t StreamDigest::hashed_bytes() noexcept {
  return g_hashed_bytes.load(std::memory_order_relaxed);
}

std::uint64_t StreamDigest::value() const noexcept {
  std::uint64_t h = std::rotl(lane_[0], 1) + std::rotl(lane_[1], 7) + std::rotl(lane_[2], 12) +
                    std::rotl(lane_[3], 18);
  for (const std::uint64_t lane : lane_) h = (h ^ lane_round(0, lane)) * kP1 + kP4;
  h += total_;
  // The tail (< one stripe), zero-padded to whole words; the length folded
  // in above keeps padded and unpadded inputs apart.
  const std::size_t tail = total_ % kStripe;
  std::uint8_t padded[kStripe] = {};
  std::memcpy(padded, carry_, tail);
  for (std::size_t i = 0; i < tail; i += 8) {
    h = std::rotl(h ^ lane_round(0, load_le64(padded + i)), 27) * kP1 + kP4;
  }
  // Avalanche finalizer (xxHash64's).
  h = (h ^ (h >> 33)) * kP2;
  h = (h ^ (h >> 29)) * kP3;
  return h ^ (h >> 32);
}

}  // namespace hpm
