// Length-prefixed message framing over a ByteChannel.
//
// The migration protocol exchanges a handful of discrete messages
// (migration request metadata, the state stream, acknowledgement); framing
// turns the raw byte stream into those messages with an explicit type tag
// so protocol errors are detected instead of mis-parsed. Every frame
// carries a 4-byte seal over header+payload (the StreamDigest folded to 32
// bits, seal_frame; a StateChunk's seal folds its body's digest in
// instead of the body), so a transfer corrupted in flight surfaces as a
// NetError at the frame boundary instead of being mis-restored into a
// live process.
#pragma once

#include <cstdint>

#include "common/hexdump.hpp"
#include "net/channel.hpp"

namespace hpm::net {

/// Version of the coordinator's wire protocol, announced in the first
/// byte of the Hello payload. Bumped to 2 when the frame trailer and Nack
/// were introduced, to 3 for the transactional handoff (chunk acks, resume,
/// Prepare/Commit/Abort, digest-bearing StateEnd), to 4 for session-tagged
/// frame headers (N concurrent migrations multiplexed over one channel;
/// that layout is gone, with no bump, because a channel with one session
/// never carried it), to 5 for destination failover (an incarnation
/// fencing token rides StateBegin, Prepare/Commit/Abort, and PrepareAck),
/// to 6 for Digest v2 (the StateEnd digest and manifest addresses are the
/// multi-lane StreamDigest, and the stream trailer is its u64), to 7 when
/// the Ping/Pong heartbeat frames were retired (tags 16 and 17 are
/// reserved and rejected), to 8 when the frame trailer changed from CRC-32
/// to the folded StreamDigest seal, to 9 when the destination's Nack
/// and chunk-watermark ack were retired (tags 6 and 10 are reserved and
/// rejected: a resume restarts from the count the destination announces
/// in ResumeHello), and to 10 when a StateChunk's seal became the fold of
/// its header and its body's digest (seal_frame) and the stream it carries
/// moved to grammar v4, whose root of chunk digests is the StateEnd and
/// PrepareAck digest; a mismatch aborts the attempt before any state moves.
inline constexpr std::uint8_t kProtocolVersion = 10;

/// recv_message's default payload cap: far below the u32 length field's
/// range, so a hostile or corrupted prefix cannot drive a multi-GiB
/// allocation.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 28;

/// Message type tags used by the migration coordinator.
enum class MsgType : std::uint8_t {
  Hello = 1,       ///< destination announces readiness (payload: version byte + arch name)
  State = 2,       ///< the migration stream produced by collection (monolithic)
  Ack = 3,         ///< destination confirms successful restoration
  Error = 4,       ///< destination rejects the handoff, in any state (payload: text)
  Shutdown = 5,    ///< orderly teardown without migration
  // 6 is reserved: Nack, up to protocol v8; every destination failure
  // now answers Error.
  StateBegin = 7,  ///< pipelined transfer opens (payload: u32 chunk size + u64 txn id)
  StateChunk = 8,  ///< one stream slice (payload: u32 seq + bytes; frame seal covers it)
  StateEnd = 9,    ///< pipelined transfer closes (u32 chunks, u64 bytes, u64 digest)
  // 10 is reserved: the chunk-watermark ack, up to protocol v8.
  Prepare = 11,    ///< source asks: restoration verified? ready to own? (payload: u64 txn)
  PrepareAck = 12, ///< destination votes yes (payload: u64 txn + u64 its stream digest)
  Commit = 13,     ///< source relinquishes ownership — point of no return (u64 txn)
  Abort = 14,      ///< source cancels the handoff after Prepare (u64 txn)
  ResumeHello = 15,///< destination re-announces mid-stream (version + u64 txn + u32 next seq)
  // 16 and 17 are reserved: the protocol-v6 Ping/Pong heartbeat frames.
  // No port accepts a reserved tag (recv_message fails it as malformed).
  ManifestBegin = 18,  ///< dedup: source announces the chunk address list (u64 txn + totals)
  ManifestChunk = 19,  ///< dedup: one batch of ordered chunk addresses
  ManifestAck = 20,    ///< dedup: destination's codec choice + miss index set
};

/// Highest tag recv_message accepts; anything outside [1, kMaxMsgType],
/// or a reserved tag (6, 10, 16, 17), is a malformed frame.
inline constexpr std::uint8_t kMaxMsgType = 20;

struct Message {
  MsgType type;
  Bytes payload;
  /// StateChunk frames only: StreamDigest of the body, payload[4..]
  /// (every byte after the seq), taken while the frame was received.
  std::uint64_t body_digest = 0;
};

/// Write a frame's seal in place: its last 4 bytes become the big-endian
/// fold32(StreamDigest) of every byte before them — or, for a StateChunk
/// frame carrying its seq, fold32(StreamDigest(type | length | seq |
/// be64 StreamDigest(body))). Every sent frame is sealed by this
/// rule, and so is a frame FaultyChannel's CorruptMasked damages below the
/// seal. `frame` must hold at least the 4 seal bytes.
void seal_frame(std::span<std::uint8_t> frame) noexcept;

/// Send one framed message in the one frame layout: u8 type, u32 length
/// (big-endian), payload, u32 seal (seal_frame). A channel carries one
/// migration session, so frames carry no session tag. The frame is
/// assembled in a pooled buffer and shipped with a single channel send.
void send_message(ByteChannel& ch, MsgType type, std::span<const std::uint8_t> payload);

/// Send one StateChunk (seq, then `body`) sealed from `body_digest`, the
/// StreamDigest of `body` its caller already holds: the body is copied
/// once, into the pooled frame, and not hashed here.
void send_state_chunk(ByteChannel& ch, std::uint32_t seq, std::span<const std::uint8_t> body,
                      std::uint64_t body_digest);

/// Receive one framed message; throws hpm::NetError on malformed frames,
/// oversized length prefixes (checked BEFORE any allocation), or a seal
/// mismatch. A StateChunk's body digest, taken in the same pass that
/// checks its seal, comes back in Message::body_digest.
Message recv_message(ByteChannel& ch, std::size_t max_payload = kMaxFramePayload);

/// --- chunked state transfer payloads -------------------------------------
/// StateBegin/StateChunk/StateEnd frame the pipelined stream: each chunk
/// carries a sequence number (gap/reorder detection on top of the frame
/// seal); StateEnd carries the totals plus the end-to-end digest, the root
/// of the canonical stream's leaf digests (msrm::leaf_root), which the
/// destination derives from the chunk digests it took on receipt and must
/// match before it may vote in the commit phase.

struct StateBeginInfo {
  std::uint32_t chunk_bytes = 0;  ///< every chunk but the last; the stream's leaf size
  std::uint64_t txn_id = 0;  ///< transaction the journals arbitrate on
  /// Destination incarnation (fencing token): 1 for the primary, k+1 for
  /// the k-th standby a failover re-targeted the stream to. The
  /// destination learns its incarnation here and refuses any later
  /// Prepare/Commit/Abort naming a different one.
  std::uint32_t incarnation = 1;
};

struct StateEndInfo {
  std::uint32_t chunk_count = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t digest = 0;  ///< leaf root of the canonical stream (grammar v4)
};

Bytes encode_state_begin(const StateBeginInfo& info);
Bytes encode_state_chunk(std::uint32_t seq, std::span<const std::uint8_t> bytes);
Bytes encode_state_end(const StateEndInfo& info);

/// Decoders throw hpm::NetError on short payloads.
StateBeginInfo decode_state_begin(const Bytes& payload);
/// Returns the sequence number; the chunk's bytes are payload[4..].
std::uint32_t decode_state_chunk_seq(const Bytes& payload);
StateEndInfo decode_state_end(const Bytes& payload);

/// --- dedup manifest payloads ----------------------------------------------
/// Content-addressed transfer (DESIGN.md §15): after StateBegin the source
/// sends the ordered address list of every chunk it is about to ship
/// (ManifestBegin totals + ManifestChunk batches), the destination answers
/// with the indices its chunk store cannot satisfy plus its negotiated
/// codec choice (ManifestAck), and StateChunk frames then carry only those
/// misses — each prefixed by a codec tag byte. Cache hits are spliced
/// locally; the StateEnd stream digest still verifies the reassembly.

struct ManifestBeginInfo {
  std::uint64_t txn_id = 0;
  std::uint32_t chunk_count = 0;  ///< total chunks (addresses announced)
  std::uint32_t chunk_bytes = 0;  ///< chunking granularity, mirrors StateBegin
  std::uint8_t codec_caps = 0;    ///< mig::WireCodec capability bits on offer
};

/// One announced chunk address (mirrors mig::ChunkAddr; net stays below mig).
struct ManifestEntry {
  std::uint64_t digest = 0;
  std::uint32_t length = 0;
};

struct ManifestChunkInfo {
  std::uint32_t first_index = 0;  ///< index of entries[0] in the full manifest
  std::vector<ManifestEntry> entries;
};

struct ManifestAckInfo {
  std::uint8_t codec = 0;  ///< mig::WireCodec the destination accepts for misses
  std::vector<std::uint32_t> misses;  ///< ascending chunk indices to transmit
};

/// Address batch size per ManifestChunk frame: 12 bytes/entry keeps the
/// frame well under a page while bounding per-frame overhead to noise.
inline constexpr std::size_t kManifestEntriesPerFrame = 256;

Bytes encode_manifest_begin(const ManifestBeginInfo& info);
Bytes encode_manifest_chunk(std::uint32_t first_index, std::span<const ManifestEntry> entries);
Bytes encode_manifest_ack(const ManifestAckInfo& info);

/// Decoders throw hpm::NetError on payloads whose declared counts
/// disagree with their byte length (hostile or corrupted frames).
ManifestBeginInfo decode_manifest_begin(const Bytes& payload);
ManifestChunkInfo decode_manifest_chunk(const Bytes& payload);
ManifestAckInfo decode_manifest_ack(const Bytes& payload);

/// Dedup-mode StateChunk payload: u32 seq + u8 codec tag + coded body
/// (tag 0 = raw). The plain encode_state_chunk layout (no tag byte) stays
/// the non-dedup wire format; the StateBegin/ManifestBegin exchange tells
/// the destination which layout to expect.
Bytes encode_state_chunk_coded(std::uint32_t seq, std::uint8_t codec_tag,
                               std::span<const std::uint8_t> body);

/// --- transactional handoff payloads --------------------------------------
/// Prepare/Commit/Abort carry the transaction id; PrepareAck adds the
/// destination's own stream digest so the source can cross-check before
/// committing; ResumeHello re-opens a transaction on a fresh channel at
/// the destination's receive watermark (the next sequence number it
/// expects).

/// Transaction id plus the destination incarnation it addresses — the
/// payload of Prepare/Commit/Abort. A destination whose incarnation
/// differs must refuse the verdict (it was fenced off by a failover).
struct TxnTokenInfo {
  std::uint64_t txn_id = 0;
  std::uint32_t incarnation = 1;
};
Bytes encode_txn_token(const TxnTokenInfo& info);
TxnTokenInfo decode_txn_token(const Bytes& payload);

struct PrepareAckInfo {
  std::uint64_t txn_id = 0;
  std::uint64_t digest = 0;  ///< the leaf root the destination derived
  std::uint32_t incarnation = 1;  ///< echoes the StateBegin fencing token
};
Bytes encode_prepare_ack(const PrepareAckInfo& info);
PrepareAckInfo decode_prepare_ack(const Bytes& payload);

struct ResumeHelloInfo {
  std::uint8_t version = kProtocolVersion;
  std::uint64_t txn_id = 0;
  std::uint32_t next_seq = 0;  ///< first chunk the destination still needs
};
Bytes encode_resume_hello(const ResumeHelloInfo& info);
ResumeHelloInfo decode_resume_hello(const Bytes& payload);

}  // namespace hpm::net
