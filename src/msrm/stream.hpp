// Migration stream framing: header, trailer, and the pointer-value tags.
//
// Grammar (canonical encoding throughout):
//
//   Stream  := Header ...payload... Trailer
//   Header  := u32 'HPMG' | u16 version | str source-arch | u64 ti-signature
//   Trailer := u8 0x7E | u64 StreamDigest(everything before the trailer)
//
//   PtrVal  := u8 PNULL
//            | u8 PREF  u64 block-id u64 leaf-ordinal
//            | u8 PNEW  u64 block-id u64 leaf-ordinal
//                       u8 segment u32 type-id u32 elem-count  Body
//   Body    := FlatBody                    -- pointer-free types
//            | elem-count * leaves(type)   -- primitives canonical;
//                                          -- pointer leaves are PtrVals,
//                                          -- nested depth-first
//   FlatBody := u8 BODY_CANON  elem-count * leaves(type)  (canonical)
//             | u8 BODY_RAW    u64 nbytes  raw source-layout bytes
//
// PNEW appears exactly once per memory block per migration (the paper's
// visited marking); every later reference is a PREF. The decoder creates
// or binds a block the moment it reads a PNEW header, before descending
// into the body, so all back and cross edges resolve immediately.
//
// Pointer-free bodies are self-describing (FlatBody tag): BODY_RAW is
// the same-architecture bulk fast path — the block's bytes verbatim in
// the *source's* layout, memcpy'd when source and destination share a
// data model and converted leaf-by-leaf (source-arch layout walk)
// otherwise. BODY_CANON is the per-element canonical encoding used when
// the source space cannot expose contiguous raw storage.
//
// Because every construct is emitted depth-first with PNEW preceding any
// reference to its block, every prefix of the payload is decodable — the
// property the chunked/pipelined transfer of src/mig relies on to start
// restoration before the stream ends. The chunking itself lives in the
// message layer (net::MsgType::StateBegin/StateChunk/StateEnd); chunk
// boundaries are byte-positional and carry no grammar significance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/digest.hpp"
#include "xdr/wire.hpp"

namespace hpm::msrm {

inline constexpr std::uint32_t kMagic = 0x48504D47;  // "HPMG"
// v2 added the self-describing FlatBody tag for pointer-free PNEW bodies;
// v3 seals the stream with the u64 StreamDigest (v2's trailer was CRC-32).
inline constexpr std::uint16_t kVersion = 3;

/// Pointer-value tags.
enum : std::uint8_t {
  kPtrNull = 0x10,
  kPtrRef = 0x11,
  kPtrNew = 0x12,
};

/// FlatBody tags (pointer-free PNEW bodies only).
enum : std::uint8_t {
  kBodyCanonical = 0x20,  ///< per-element canonical primitives
  kBodyRaw = 0x21,        ///< u64 nbytes + raw source-layout bytes
};

inline constexpr std::uint8_t kTrailerTag = 0x7E;
inline constexpr std::size_t kTrailerBytes = 9;  ///< tag + u64 payload digest

struct StreamHeader {
  std::string source_arch;
  std::uint64_t ti_signature = 0;
};

void write_header(xdr::Encoder& enc, const StreamHeader& header);

/// Reads and validates magic + version; throws hpm::WireError on mismatch.
StreamHeader read_header(xdr::Decoder& dec);

/// Append the trailer; call once, after all payload. `prefix` is a digest
/// that has already seen the stream's first `prefix_len` bytes (the
/// collect tap's), so only the bytes after them are hashed here.
void finish_stream(xdr::Encoder& enc, StreamDigest prefix = {}, std::size_t prefix_len = 0);

/// Validate the trailer and return the payload span (header included,
/// trailer excluded). Throws hpm::WireError on corruption or truncation.
std::span<const std::uint8_t> check_stream(std::span<const std::uint8_t> stream);

/// Same checks against a `payload_digest` the caller computed over every
/// byte but the last kTrailerBytes in its own pass over the stream.
std::span<const std::uint8_t> check_stream(std::span<const std::uint8_t> stream,
                                           std::uint64_t payload_digest);

}  // namespace hpm::msrm
