// ChunkAssembler: destination-side reassembly for the pipelined transfer.
//
// The coordinator's rx thread appends StateChunk payloads as they arrive;
// the restoring thread pulls newly available bytes into its own buffer
// (the decoder's backing store) through fetch(). The two sides never
// share a mutable buffer: the producer writes only the assembler's
// internal vector, the consumer copies out of it under the lock — so the
// design is clean under TSan by construction, not by annotation.
//
// Each assembled chunk keeps its address (StreamDigest and length) as the
// producer learned it — from the frame receive, the store's verified load
// or put() — so the restorer derives the stream's leaf root without
// hashing the chunks again.
//
// Any producer-side failure (frame seal mismatch, sequence violation,
// hostile StateEnd totals) poisons the assembler; the consumer's next
// fetch() rethrows it as a NetError, which the destination answers with
// Error — one retryable failure, never a hang. Sequence and totals
// violations throw the typed hpm::ProtocolError on the producer side too,
// so the rx loop can distinguish a hostile/buggy peer from a damaged
// link.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/hexdump.hpp"
#include "mig/chunk_store.hpp"
#include "net/message.hpp"

namespace hpm::mig {

class ChunkAssembler {
 public:
  /// `chunk_bytes` is the StateBegin-announced chunk size: the leaf size
  /// the stream's header must name (0 = none announced, which no stream
  /// header matches). The assembly buffer is reserved ahead in
  /// multi-chunk strides of it, so appending a chunk reuses the same
  /// backing store instead of paying a reallocation (and the copy of
  /// everything assembled so far) per StateChunk — the alloc churn that
  /// used to show up against `mig.pipeline.*` chunk rates. With 0, growth
  /// is still geometric.
  explicit ChunkAssembler(std::uint32_t chunk_bytes = 0) : chunk_bytes_(chunk_bytes) {}

  [[nodiscard]] std::uint32_t chunk_bytes() const noexcept { return chunk_bytes_; }

  /// --- producer side (rx thread) -----------------------------------------

  /// Append one chunk's bytes and `digest`, their StreamDigest as the
  /// caller already took it. Chunks must arrive in exact sequence order
  /// (the channel is ordered; a gap means a dropped frame, a duplicate a
  /// replayed one). Any violation — including a chunk after StateEnd —
  /// poisons the assembler and throws hpm::ProtocolError. In manifest
  /// mode, "next expected" skips over indices spliced from the store, so
  /// wire chunks carry only the negotiated misses — and after
  /// mark_resumed(), any not-yet-assembled index, hit or miss.
  void append(std::uint32_t seq, std::span<const std::uint8_t> bytes, std::uint64_t digest);

  /// --- dedup manifest mode -------------------------------------------------

  /// Arm manifest mode with the source's ordered chunk address list.
  /// Every address the store can produce (digest-verified load — a
  /// corrupted entry silently degrades to a miss and is unlinked) is held
  /// for local splicing, its verified address standing as its digest; the
  /// returned ascending index list is the miss set the destination must
  /// request over the wire. Leading hits are spliced immediately; later
  /// ones as the wire fills the gaps before them. Must be called before any
  /// append; may be called only once.
  std::vector<std::uint32_t> begin_manifest(const std::vector<ChunkAddr>& addrs,
                                            ChunkStore& store);

  /// A link failure re-opened the stream: the source will retransmit
  /// every chunk from the destination's watermark raw, including former
  /// cache hits, so stop splicing and accept them all from the wire.
  void mark_resumed();

  /// Orderly end of stream: verifies the chunk count and byte total
  /// against what actually arrived and retains `info`. Its end-to-end
  /// digest is not checked here — transport validates structure, msrm
  /// validates content: the restoring MigContext builds the root from
  /// chunk_addrs() and compares at the migration point. A mismatch or a
  /// second StateEnd poisons the assembler instead of completing it.
  void finish(const net::StateEndInfo& info);

  /// Poison the assembler: every waiting or future consumer call throws
  /// NetError(reason).
  void fail(std::string reason);

  /// --- consumer side (restore thread) ------------------------------------

  /// Append to `out` (which must hold a prefix of the stream) every byte
  /// beyond out.size(), blocking until at least `min_total` bytes exist
  /// or the stream completes. Returns true if `out` grew, false when the
  /// stream is complete and exhausted. Throws hpm::NetError if poisoned.
  bool fetch(Bytes& out, std::size_t min_total);

  /// Block until finish() or fail(); returns the total byte count on
  /// success, throws hpm::NetError on failure.
  std::uint64_t await_complete();

  [[nodiscard]] std::uint32_t chunks_received() const;

  /// The address (digest and length) of every chunk assembled so far, in
  /// stream order.
  [[nodiscard]] std::vector<ChunkAddr> chunk_addrs() const;

  /// The StateEnd that completed the stream (valid once await_complete()
  /// returned): carries the source's end-to-end digest.
  [[nodiscard]] net::StateEndInfo end_info() const;

  /// How many times the assembly buffer's backing store was regrown.
  /// The invariant (asserted by the unit test): O(log chunks), never
  /// O(chunks) — appending must reuse the scratch buffer, not reallocate
  /// per StateChunk.
  [[nodiscard]] std::uint64_t alloc_growths() const;

 private:
  void fail_locked(std::string reason);
  void reserve_for_locked(std::size_t incoming);
  void splice_pending_locked();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Bytes data_;
  std::uint32_t chunk_bytes_ = 0;
  std::uint64_t growths_ = 0;
  net::StateEndInfo end_;
  std::vector<ChunkAddr> addrs_;  ///< one per assembled chunk
  bool complete_ = false;
  bool failed_ = false;
  std::string reason_;

  // Manifest mode: cache-hit bodies waiting for the assembly prefix to
  // reach their index. A held hit's body is released as soon as it is
  // spliced (or superseded by a raw resume retransmit) so peak memory
  // stays one stream, not two.
  struct Held {
    Bytes body;
    ChunkAddr addr;
    bool have = false;
  };
  bool manifest_mode_ = false;
  bool splice_enabled_ = true;
  std::vector<Held> held_;
};

}  // namespace hpm::mig
