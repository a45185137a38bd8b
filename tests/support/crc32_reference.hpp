// Bitwise CRC-32 (IEEE 802.3 polynomial, reflected): the seal of the
// retired formats — v7 frames, 'HPMK' journal records, chunk-store records
// with a CRC trailer, v2 migration streams, v2-stream checkpoints and v1
// HCKI files. The library no longer computes it; tests use this reference
// to build those legacy bytes and check that each is refused with a typed
// error.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hpm::test {

/// CRC-32 of `n` bytes (or chars), one bit at a time.
template <typename Byte>
constexpr std::uint32_t crc32_reference(const Byte* data, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= static_cast<std::uint8_t>(data[i]);
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return crc ^ 0xFFFFFFFFu;
}

// The standard check value: pins the reference to the CRC-32 the retired
// formats were sealed with.
static_assert(crc32_reference("123456789", 9) == 0xCBF43926u);

}  // namespace hpm::test
