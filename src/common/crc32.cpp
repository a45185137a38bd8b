#include "common/crc32.hpp"

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

}  // namespace

constinit const std::array<std::array<std::uint32_t, 256>, 16> Crc32::kTables = make_tables();

void Crc32::update(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (; len >= 16; len -= 16, p += 16) update16(p);
  std::uint32_t c = state_;
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
