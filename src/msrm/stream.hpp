// Migration stream framing: header, trailer, and the pointer-value tags.
//
// Grammar (canonical encoding throughout):
//
//   Stream  := Header ...payload... Trailer
//   Header  := u32 'HPMG' | u16 version | u64 leaf-bytes | str source-arch
//              | u64 ti-signature
//   Trailer := u8 0x7E | u64 LeafRoot(Header ...payload...)
//
//   LeafRoot(P) := StreamDigest(be64 d_0 | be64 d_1 | ... | be64 d_n-1)
//   d_i         := StreamDigest(P[i*L, min((i+1)*L, |P|)))   L = leaf-bytes
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
// message layer (net::MsgType::StateBegin/StateChunk/StateEnd): chunk i
// is the stream's bytes [i*L, (i+1)*L), so every chunk wholly before the
// trailer is a leaf, and the digest a side takes of a chunk (the collect
// tap's, the frame receiver's) is the leaf digest the root is built from.
// Only the last, partial leaf shares its chunk with the trailer and is
// hashed once more on its own. The root depends on L: two streams of one
// process state have equal roots only at equal leaf size.
//
// leaf-bytes is a u64 although it never exceeds kMaxLeafBytes: an 8-byte
// field keeps the header's length, and so every payload word's offset
// from its chunk start, the same modulo 8 as in v3. The dedup codec
// (mig/wire_codec) deltas 8-byte words counted from each chunk's start;
// a 4-byte field would misalign every double and u64 it sees.
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
// v3 sealed the stream with the u64 StreamDigest (v2's trailer was CRC-32);
// v4 adds the header's u64 leaf size and seals with the root of the leaf
// digests (v3's trailer digested the payload in one piece).
inline constexpr std::uint16_t kVersion = 4;

/// Leaf size of a stream collected without a chunked transfer in view
/// (checkpoints, and the default RunOptions::chunk_bytes).
inline constexpr std::uint32_t kDefaultLeafBytes = 64 * 1024;
/// Largest leaf size a header may name: the most body one StateChunk frame
/// carries under net's frame cap (2^28 payload bytes, less the u32 seq and
/// the dedup codec tag).
inline constexpr std::uint32_t kMaxLeafBytes = (1u << 28) - 5;

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
inline constexpr std::size_t kTrailerBytes = 9;  ///< tag + u64 leaf root

struct StreamHeader {
  std::string source_arch;
  std::uint64_t ti_signature = 0;
  std::uint32_t leaf_bytes = kDefaultLeafBytes;
};

/// Throws hpm::WireError for a leaf size outside [1, kMaxLeafBytes].
void write_header(xdr::Encoder& enc, const StreamHeader& header);

/// Reads and validates magic, version and leaf size; throws
/// hpm::WireError on a mismatch.
StreamHeader read_header(xdr::Decoder& dec);

/// read_header over the start of `stream`, recording nothing under
/// `xdr.decode.*` (the stream's own decoder counts it).
StreamHeader read_header(std::span<const std::uint8_t> stream);

/// LeafRoot of `payload` cut into `leaf_bytes` leaves. The first
/// known.size() leaves are whole leaves whose digests the caller already
/// holds; only the bytes after them are hashed here. Throws hpm::WireError
/// for a leaf size outside [1, kMaxLeafBytes].
std::uint64_t leaf_root(std::span<const std::uint8_t> payload, std::uint32_t leaf_bytes,
                        std::span<const std::uint64_t> known = {});

/// Append the trailer after all payload (the encoder holds the whole
/// stream from its header on) and return the root it seals. `known` are
/// digests of leading whole leaves, as for leaf_root.
std::uint64_t finish_stream(xdr::Encoder& enc, std::span<const std::uint64_t> known = {});

/// Validate the trailer and return the payload span (header included,
/// trailer excluded). Throws hpm::WireError on corruption or truncation.
std::span<const std::uint8_t> check_stream(std::span<const std::uint8_t> stream);

/// Same checks against a `root` the caller derived from its own leaf
/// digests of the payload.
std::span<const std::uint8_t> check_stream(std::span<const std::uint8_t> stream,
                                           std::uint64_t root);

/// Rewrite a valid stream's header to leaf size `leaf_bytes` and re-seal
/// it: the payload after the header does not depend on the leaf size, so
/// this yields the stream a collection at that leaf size would have made.
/// Throws hpm::WireError if `stream` does not check.
void reseal_stream(Bytes& stream, std::uint32_t leaf_bytes);

}  // namespace hpm::msrm
