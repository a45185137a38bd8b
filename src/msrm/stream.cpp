#include "msrm/stream.hpp"

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace hpm::msrm {

void write_header(xdr::Encoder& enc, const StreamHeader& header) {
  enc.put_u32(kMagic);
  enc.put_u16(kVersion);
  enc.put_string(header.source_arch);
  enc.put_u64(header.ti_signature);
}

StreamHeader read_header(xdr::Decoder& dec) {
  const std::uint32_t magic = dec.get_u32();
  if (magic != kMagic) throw WireError("not a migration stream (bad magic)");
  const std::uint16_t version = dec.get_u16();
  if (version != kVersion) {
    throw WireError("unsupported stream version " + std::to_string(version));
  }
  StreamHeader header;
  header.source_arch = dec.get_string();
  header.ti_signature = dec.get_u64();
  return header;
}

void finish_stream(xdr::Encoder& enc) { finish_stream(enc, Crc32{}, 0); }

void finish_stream(xdr::Encoder& enc, Crc32 prefix_crc, std::size_t prefix_len) {
  const Bytes& bytes = enc.bytes();
  prefix_crc.update(bytes.data() + prefix_len, bytes.size() - prefix_len);
  enc.put_u8(kTrailerTag);
  enc.put_u32(prefix_crc.value());
}

std::span<const std::uint8_t> check_stream(std::span<const std::uint8_t> stream) {
  const std::size_t payload_len = stream.size() < 5 ? 0 : stream.size() - 5;
  return check_stream(stream, Crc32::of(stream.data(), payload_len));
}

std::span<const std::uint8_t> check_stream(std::span<const std::uint8_t> stream,
                                           std::uint32_t payload_crc) {
  if (stream.size() < 5) throw WireError("stream too short to contain a trailer");
  const std::size_t payload_len = stream.size() - 5;
  if (stream[payload_len] != kTrailerTag) {
    throw WireError("stream trailer tag missing (truncated transfer?)");
  }
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) stored = (stored << 8) | stream[payload_len + 1 + i];
  if (stored != payload_crc) {
    throw WireError("stream checksum mismatch: transfer corrupted");
  }
  return stream.subspan(0, payload_len);
}

void StreamDigest::update(std::span<const std::uint8_t> bytes) noexcept {
  // One pass: each 16-byte block is CRC'd (sixteen independent table
  // lookups) and then run through the FNV-1a chain while it sits in
  // registers. The lookups carry no dependency on the FNV state, so they
  // execute in the shadow of its serial multiply chain — the digest costs
  // FNV-1a alone, not FNV-1a plus a CRC pass.
  constexpr std::uint64_t kPrime = 0x100000001b3ull;  // FNV-1a 64 prime
  std::uint64_t h = fnv_;
  const std::uint8_t* p = bytes.data();
  std::size_t left = bytes.size();
  for (; left >= 16; left -= 16, p += 16) {
    crc_.update16(p);
    for (int i = 0; i < 16; ++i) {
      h ^= p[i];
      h *= kPrime;
    }
  }
  crc_.update(p, left);
  for (; left > 0; --left, ++p) {
    h ^= *p;
    h *= kPrime;
  }
  fnv_ = h;
}

std::uint64_t StreamDigest::value() const noexcept {
  // Fold the CRC into the FNV state through a golden-ratio multiply so
  // the two codes cannot cancel byte-for-byte.
  return fnv_ ^ (static_cast<std::uint64_t>(crc_.value()) * 0x9E3779B97F4A7C15ull);
}

}  // namespace hpm::msrm
