// CRC-32 (IEEE 802.3 polynomial, reflected) used to seal migration streams.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace hpm {

/// Incremental CRC-32 accumulator.
///
/// The migration stream trailer stores `Crc32::finish(update(...))` over all
/// preceding bytes so a truncated or corrupted transfer is detected before
/// any block is materialized on the destination.
///
/// update() is slice-by-16: sixteen independent table lookups per 16-byte
/// block instead of a serial lookup per byte. The value is identical to
/// the byte-at-a-time definition for every input and every split of it
/// into update() calls.
class Crc32 {
 public:
  /// Feed `len` bytes; returns the running (pre-finalization) state.
  void update(const void* data, std::size_t len) noexcept;

  /// Feed exactly 16 bytes — the sliced kernel's unit, inline so loops
  /// that do other per-byte work (msrm::StreamDigest) can fuse with it.
  void update16(const unsigned char* p) noexcept {
    state_ = fold_word(load_le32(p) ^ state_, 12) ^ fold_word(load_le32(p + 4), 8) ^
             fold_word(load_le32(p + 8), 4) ^ fold_word(load_le32(p + 12), 0);
  }

  /// Finalized CRC value of everything fed so far.
  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

  /// One-shot convenience.
  static std::uint32_t of(const void* data, std::size_t len) noexcept;

 private:
  /// Slice-by-16 tables (defined in crc32.cpp). Table 0 is the classic
  /// byte-at-a-time table; table k holds the CRC contribution of a byte
  /// followed by k zero bytes.
  static const std::array<std::array<std::uint32_t, 256>, 16> kTables;

  /// Little-endian u32 at `p`, assembled from bytes: no alignment or host
  /// byte-order assumption (compilers fold this into one load on LE hosts).
  static std::uint32_t load_le32(const unsigned char* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
  }

  /// The four lookups for one word whose last byte sits `k` bytes before
  /// the end of its 16-byte block.
  static std::uint32_t fold_word(std::uint32_t w, std::size_t k) noexcept {
    return kTables[k + 3][w & 0xFFu] ^ kTables[k + 2][(w >> 8) & 0xFFu] ^
           kTables[k + 1][(w >> 16) & 0xFFu] ^ kTables[k][w >> 24];
  }

  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace hpm
