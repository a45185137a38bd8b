// CRC-32 (IEEE 802.3 polynomial, reflected) used to seal frames, journal
// records and chunk-store records.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hpm {

/// Incremental CRC-32 accumulator.
///
/// update() is slice-by-16: sixteen independent table lookups per 16-byte
/// block instead of a serial lookup per byte. The value is identical to
/// the byte-at-a-time definition for every input and every split of it
/// into update() calls.
class Crc32 {
 public:
  /// Feed `len` bytes; returns the running (pre-finalization) state.
  void update(const void* data, std::size_t len) noexcept;

  /// Finalized CRC value of everything fed so far.
  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

  /// One-shot convenience.
  static std::uint32_t of(const void* data, std::size_t len) noexcept;

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace hpm
