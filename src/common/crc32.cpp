#include "common/crc32.hpp"

#include <array>

namespace hpm {
namespace {

using Table = std::array<std::uint32_t, 256>;

constexpr std::array<Table, 16> make_tables() {
  std::array<Table, 16> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  // One zero byte more per table: shift the previous entry through
  // table 0 once.
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

/// Slice-by-16 tables. Table 0 is the classic byte-at-a-time table;
/// table k holds the CRC contribution of a byte followed by k zero bytes.
constinit const std::array<Table, 16> kTables = make_tables();

/// Little-endian u32 at `p`, assembled from bytes: no alignment or host
/// byte-order assumption (compilers fold this into one load on LE hosts).
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

/// The four lookups for one word whose last byte sits `k` bytes before
/// the end of its 16-byte block.
inline std::uint32_t fold_word(std::uint32_t w, std::size_t k) noexcept {
  return kTables[k + 3][w & 0xFFu] ^ kTables[k + 2][(w >> 8) & 0xFFu] ^
         kTables[k + 1][(w >> 16) & 0xFFu] ^ kTables[k][w >> 24];
}

}  // namespace

void Crc32::update(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = state_;
  for (; len >= 16; len -= 16, p += 16) {
    c = fold_word(load_le32(p) ^ c, 12) ^ fold_word(load_le32(p + 4), 8) ^
        fold_word(load_le32(p + 8), 4) ^ fold_word(load_le32(p + 12), 0);
  }
  for (; len > 0; --len, ++p) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t Crc32::of(const void* data, std::size_t len) noexcept {
  Crc32 crc;
  crc.update(data, len);
  return crc.value();
}

}  // namespace hpm
