// Migration stream framing: header, trailer, and the pointer-value tags.
//
// Grammar (canonical encoding throughout):
//
//   Stream  := Header ...payload... Trailer
//   Header  := u32 'HPMG' | u16 version | str source-arch | u64 ti-signature
//   Trailer := u8 0x7E | u32 crc32(everything before the trailer)
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

#include <cstdint>
#include <span>
#include <string>

#include "common/crc32.hpp"
#include "xdr/wire.hpp"

namespace hpm::msrm {

inline constexpr std::uint32_t kMagic = 0x48504D47;  // "HPMG"
// v2 added the self-describing FlatBody tag for pointer-free PNEW bodies.
inline constexpr std::uint16_t kVersion = 2;

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

struct StreamHeader {
  std::string source_arch;
  std::uint64_t ti_signature = 0;
};

void write_header(xdr::Encoder& enc, const StreamHeader& header);

/// Reads and validates magic + version; throws hpm::WireError on mismatch.
StreamHeader read_header(xdr::Decoder& dec);

/// Append the CRC trailer; call once, after all payload.
void finish_stream(xdr::Encoder& enc);

/// Same trailer, when a running CRC over the stream's first `prefix_len`
/// bytes already exists (the collect tap's StreamDigest::crc()): only the
/// bytes after the prefix are hashed here.
void finish_stream(xdr::Encoder& enc, Crc32 prefix_crc, std::size_t prefix_len);

/// Validate the trailer and return the payload span (header included,
/// trailer excluded). Throws hpm::WireError on corruption or truncation.
std::span<const std::uint8_t> check_stream(std::span<const std::uint8_t> stream);

/// Same checks against a `payload_crc` the caller computed over every
/// byte but the last five in its own pass over the stream.
std::span<const std::uint8_t> check_stream(std::span<const std::uint8_t> stream,
                                           std::uint32_t payload_crc);

/// Running end-to-end digest over the canonical stream: FNV-1a 64 composed
/// with a CRC-32, folded into one u64. The two mix functions have
/// independent failure modes — FNV-1a is order-sensitive byte hashing,
/// CRC-32 is a polynomial code — so a corruption crafted to pass one
/// (e.g. a frame whose trailing CRC was recomputed in flight) still trips
/// the other. The source taps collection chunk by chunk; the destination
/// hashes bytes as its decoder pulls them in and compares before Commit.
/// The source and the pipelined destination also read the stream
/// trailer's CRC off the digest's own CRC (crc()), so each walks the
/// stream once.
///
/// Also the content address of the dedup'd transfer: a chunk's
/// mig::ChunkAddr is `of(body)` plus the body length (DESIGN.md §15),
/// which is why the canonical stream must stay deterministic for a given
/// process state — addresses are only stable because the bytes are.
class StreamDigest {
 public:
  void update(std::span<const std::uint8_t> bytes) noexcept;
  /// Digest of everything fed so far. Stable across update() granularity:
  /// one call over the whole stream equals many calls over its chunks.
  [[nodiscard]] std::uint64_t value() const noexcept;
  /// The CRC-32 half, over exactly the bytes fed so far: equal to
  /// Crc32::of() over them, so it can seal a stream trailer.
  [[nodiscard]] const Crc32& crc() const noexcept { return crc_; }

  static std::uint64_t of(std::span<const std::uint8_t> bytes) noexcept {
    StreamDigest d;
    d.update(bytes);
    return d.value();
  }

 private:
  std::uint64_t fnv_ = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis
  Crc32 crc_;
};

}  // namespace hpm::msrm
