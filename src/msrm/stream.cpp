#include "msrm/stream.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hpm::msrm {

namespace {

void check_leaf_bytes(std::uint64_t leaf_bytes) {
  if (leaf_bytes == 0 || leaf_bytes > kMaxLeafBytes) {
    throw WireError("stream leaf size " + std::to_string(leaf_bytes) + " outside [1, " +
                    std::to_string(kMaxLeafBytes) + "]");
  }
}

std::uint64_t stored_root(std::span<const std::uint8_t> stream) {
  if (stream.size() < kTrailerBytes) throw WireError("stream too short to contain a trailer");
  const std::size_t payload_len = stream.size() - kTrailerBytes;
  if (stream[payload_len] != kTrailerTag) {
    throw WireError("stream trailer tag missing (truncated transfer?)");
  }
  std::uint64_t stored = 0;
  for (std::size_t i = 1; i < kTrailerBytes; ++i) {
    stored = (stored << 8) | stream[payload_len + i];
  }
  return stored;
}

}  // namespace

void write_header(xdr::Encoder& enc, const StreamHeader& header) {
  check_leaf_bytes(header.leaf_bytes);
  enc.put_u32(kMagic);
  enc.put_u16(kVersion);
  enc.put_u64(header.leaf_bytes);
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
  const std::uint64_t leaf_bytes = dec.get_u64();
  check_leaf_bytes(leaf_bytes);
  StreamHeader header;
  header.leaf_bytes = static_cast<std::uint32_t>(leaf_bytes);
  header.source_arch = dec.get_string();
  header.ti_signature = dec.get_u64();
  return header;
}

StreamHeader read_header(std::span<const std::uint8_t> stream) {
  xdr::Decoder dec(stream, /*counted=*/false);
  return read_header(dec);
}

std::uint64_t leaf_root(std::span<const std::uint8_t> payload, std::uint32_t leaf_bytes,
                        std::span<const std::uint64_t> known) {
  check_leaf_bytes(leaf_bytes);
  // LeafRoot: a StreamDigest over the leaf digests, each fed as 8
  // big-endian bytes.
  StreamDigest root;
  const auto add = [&root](std::uint64_t leaf) {
    std::uint8_t be[8];
    for (int i = 0; i < 8; ++i) be[i] = static_cast<std::uint8_t>(leaf >> (56 - 8 * i));
    root.update(be);
  };
  for (const std::uint64_t d : known) add(d);
  for (std::size_t off = known.size() * std::size_t{leaf_bytes}; off < payload.size();
       off += leaf_bytes) {
    add(StreamDigest::of(
        payload.subspan(off, std::min<std::size_t>(leaf_bytes, payload.size() - off))));
  }
  return root.value();
}

std::uint64_t finish_stream(xdr::Encoder& enc, std::span<const std::uint64_t> known) {
  const Bytes& bytes = enc.bytes();
  const std::uint64_t root = leaf_root(bytes, read_header(bytes).leaf_bytes, known);
  enc.put_u8(kTrailerTag);
  enc.put_u64(root);
  return root;
}

std::span<const std::uint8_t> check_stream(std::span<const std::uint8_t> stream) {
  const std::uint64_t stored = stored_root(stream);
  const std::span<const std::uint8_t> payload = stream.first(stream.size() - kTrailerBytes);
  if (leaf_root(payload, read_header(payload).leaf_bytes) != stored) {
    throw WireError("stream digest mismatch: transfer corrupted");
  }
  return payload;
}

std::span<const std::uint8_t> check_stream(std::span<const std::uint8_t> stream,
                                           std::uint64_t root) {
  if (stored_root(stream) != root) {
    throw WireError("stream digest mismatch: transfer corrupted");
  }
  return stream.first(stream.size() - kTrailerBytes);
}

void reseal_stream(Bytes& stream, std::uint32_t leaf_bytes) {
  const std::span<const std::uint8_t> payload = check_stream(stream);
  xdr::Decoder dec(payload, /*counted=*/false);
  StreamHeader header = read_header(dec);
  header.leaf_bytes = leaf_bytes;
  xdr::Encoder enc;
  write_header(enc, header);
  enc.put_bytes(payload.data() + dec.position(), payload.size() - dec.position());
  finish_stream(enc);
  stream = enc.bytes();
}

}  // namespace hpm::msrm
