#include "msrm/stream.hpp"

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

void finish_stream(xdr::Encoder& enc, StreamDigest prefix, std::size_t prefix_len) {
  const Bytes& bytes = enc.bytes();
  prefix.update({bytes.data() + prefix_len, bytes.size() - prefix_len});
  enc.put_u8(kTrailerTag);
  enc.put_u64(prefix.value());
}

std::span<const std::uint8_t> check_stream(std::span<const std::uint8_t> stream) {
  const std::size_t payload_len = stream.size() < kTrailerBytes ? 0 : stream.size() - kTrailerBytes;
  return check_stream(stream, StreamDigest::of(stream.first(payload_len)));
}

std::span<const std::uint8_t> check_stream(std::span<const std::uint8_t> stream,
                                           std::uint64_t payload_digest) {
  if (stream.size() < kTrailerBytes) throw WireError("stream too short to contain a trailer");
  const std::size_t payload_len = stream.size() - kTrailerBytes;
  if (stream[payload_len] != kTrailerTag) {
    throw WireError("stream trailer tag missing (truncated transfer?)");
  }
  std::uint64_t stored = 0;
  for (std::size_t i = 1; i < kTrailerBytes; ++i) stored = (stored << 8) | stream[payload_len + i];
  if (stored != payload_digest) {
    throw WireError("stream digest mismatch: transfer corrupted");
  }
  return stream.subspan(0, payload_len);
}

}  // namespace hpm::msrm
