#include "mig/wire_codec.hpp"

#include <cstring>

#include "common/endian.hpp"
#include "common/error.hpp"

namespace hpm::mig {

namespace {

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// A u64 LEB128 varint is at most 10 bytes; a continuation bit past that
/// is hostile, not just wasteful, and a truncated one means the coded
/// body lied about its word count.
std::uint64_t get_varint(std::span<const std::uint8_t> coded, std::size_t& pos) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 70; shift += 7) {
    if (pos >= coded.size()) throw NetError("coded chunk: truncated varint");
    const std::uint8_t byte = coded[pos++];
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << (shift < 63 ? shift : 63);
    if ((byte & 0x80u) == 0) {
      if (shift == 63 && (byte & 0x7Eu) != 0) {
        throw NetError("coded chunk: overlong varint");
      }
      return v;
    }
  }
  throw NetError("coded chunk: overlong varint");
}

}  // namespace

std::uint8_t codec_caps_of(WireCodec codec) {
  return codec == WireCodec::VarintDelta ? kCodecCapVarintDelta : 0;
}

WireCodec negotiate_codec(std::uint8_t offered_caps, WireCodec own) {
  if ((offered_caps & kCodecCapVarintDelta) != 0 && own == WireCodec::VarintDelta) {
    return WireCodec::VarintDelta;
  }
  return WireCodec::None;
}

Bytes codec_encode(std::span<const std::uint8_t> body) {
  const std::size_t words = body.size() / 8;
  const std::size_t tail = body.size() % 8;
  Bytes out;
  out.reserve(body.size() + body.size() / 4 + 16);
  std::uint64_t prev = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t word = get_u64_be(body.data() + w * 8);
    put_varint(out, zigzag(static_cast<std::int64_t>(word - prev)));
    prev = word;
  }
  out.insert(out.end(), body.end() - static_cast<std::ptrdiff_t>(tail), body.end());
  return out;
}

Bytes codec_decode(std::span<const std::uint8_t> coded, std::size_t expected_len) {
  const std::size_t words = expected_len / 8;
  const std::size_t tail = expected_len % 8;
  Bytes out(expected_len);
  std::size_t pos = 0;
  std::uint64_t prev = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t delta = get_varint(coded, pos);
    prev += static_cast<std::uint64_t>(unzigzag(delta));
    put_u64_be(out.data() + w * 8, prev);
  }
  if (coded.size() - pos != tail) {
    throw NetError("coded chunk: length mismatch (" + std::to_string(coded.size() - pos) +
                   "-byte tail, expected " + std::to_string(tail) + ")");
  }
  if (tail > 0) std::memcpy(out.data() + words * 8, coded.data() + pos, tail);
  return out;
}

}  // namespace hpm::mig
