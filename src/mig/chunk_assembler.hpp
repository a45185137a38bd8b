// ChunkAssembler: destination-side reassembly for the pipelined transfer.
//
// The coordinator's rx thread appends each chunk, kept by move where it
// already lies (the received payload, a store hit's body, a decoded miss)
// as one *segment*; the restoring thread decodes straight out of the
// segments. It takes segment i under the lock and reads it outside: a
// segment never moves and its bytes never change once appended, so the
// design is clean under TSan by construction, not by annotation.
//
// Each assembled chunk keeps its address (StreamDigest and length) as the
// producer learned it — from the frame receive, the store's verified load
// or put() — so the restorer derives the stream's leaf root without
// hashing the chunks again.
//
// Any producer-side failure (frame seal mismatch, sequence violation,
// hostile StateEnd totals) poisons the assembler; the consumer's next
// segment() rethrows it as a NetError, which the destination answers with
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
  /// header matches).
  explicit ChunkAssembler(std::uint32_t chunk_bytes = 0) : chunk_bytes_(chunk_bytes) {}

  [[nodiscard]] std::uint32_t chunk_bytes() const noexcept { return chunk_bytes_; }

  /// --- producer side (rx thread) -----------------------------------------

  /// Append one chunk, bytes[offset..] (a payload keeps its seq in front),
  /// and `digest`, its StreamDigest as the caller already took it. Chunks
  /// must arrive in exact sequence order (the channel is ordered; a gap
  /// means a dropped frame, a duplicate a replayed one). Any violation —
  /// including a chunk after StateEnd — poisons the assembler and throws
  /// hpm::ProtocolError. In manifest mode, "next expected" skips over
  /// indices spliced from the store, so wire chunks carry only the
  /// negotiated misses — and after mark_resumed(), any not-yet-assembled
  /// index, hit or miss.
  void append(std::uint32_t seq, Bytes bytes, std::size_t offset, std::uint64_t digest);

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

  /// Segment `i` of the stream (chunk i's bytes), blocking until it has
  /// arrived or the stream completed without it (false). A segment, once
  /// appended, never moves: `out` stays valid as long as the assembler.
  /// Throws hpm::NetError if poisoned.
  bool segment(std::size_t i, std::span<const std::uint8_t>& out);

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

 private:
  /// One assembled chunk: bytes[offset..] of a buffer it arrived in.
  struct Segment {
    Bytes bytes;
    std::size_t offset = 0;
    ChunkAddr addr;
  };

  void fail_locked(std::string reason);
  void splice_pending_locked();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Segment> segments_;
  std::uint64_t total_ = 0;  ///< bytes assembled
  std::uint32_t chunk_bytes_ = 0;
  net::StateEndInfo end_;
  bool complete_ = false;
  bool failed_ = false;
  std::string reason_;

  // Manifest mode: cache-hit bodies waiting for the assembly prefix to
  // reach their index, each moved into its segment when spliced (or
  // dropped when a raw resume retransmit supersedes it).
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
