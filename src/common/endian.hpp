// Big-endian loads and stores of the fixed-width fields hpm lays out by
// hand: frame heads, chunk-store and journal records, seals and
// trailers. (The canonical stream has its own encoder, xdr/wire.hpp.)
#pragma once

#include <cstdint>

namespace hpm {

inline void put_u32_be(std::uint8_t* out, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
}

inline void put_u64_be(std::uint8_t* out, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

inline std::uint32_t get_u32_be(const std::uint8_t* in) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | in[i];
  return v;
}

inline std::uint64_t get_u64_be(const std::uint8_t* in) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | in[i];
  return v;
}

}  // namespace hpm
