// The migration coordinator: the paper's "scheduler" plus the two-host
// protocol (§2), hardened for unreliable transports.
//
// run_migration() models one migration event end-to-end on a single
// physical machine: a destination host is brought up first and waits for
// the execution and memory states; the source runs the program to its
// trigger, collects, and transmits over a real channel (in-memory or TCP
// loopback — optionally throttled to a modeled Ethernet) as one two-phase
// transaction. A damaged, stalled, or disconnected transfer is resumed or
// retried with capped exponential backoff; when the retry budget is
// exhausted the source abandons migration and finishes the computation
// locally, so a failed migration never kills the workload. The simplex
// shared-file transport has no reverse path to vote on, so it spools the
// collected stream per attempt instead. The report carries the paper's
// Collect / Tx / Restore split plus the attempt history.
//
// Internal header: embedders include hpm/migrate.hpp, which re-exports
// this header's stable surface into the top-level hpm namespace. Only
// that facade is a stability boundary; this header may be reorganized
// freely.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mig/context.hpp"
#include "mig/journal.hpp"
#include "mig/wire_codec.hpp"
#include "net/factory.hpp"
#include "net/faulty_channel.hpp"
#include "net/simnet.hpp"
#include "obs/metrics.hpp"

namespace hpm::mig {

/// How the two hosts exchange the migration stream. Now defined by the
/// net layer next to its factory (net::make_channel_pair); this alias
/// keeps mig::Transport::Memory etc. working.
using Transport = net::Transport;

/// One standby destination a failover may re-target an in-flight
/// migration to, in policy order.
struct DestinationCandidate {
  /// Label used in reports and failure causes ("standby-1" by default).
  std::string name;
  /// The standby's own persistent ChunkStore directory. Non-empty turns
  /// the replay into a manifest negotiation against that store, so a warm
  /// standby receives only the chunks it misses. Empty = raw replay.
  std::string chunk_cache_dir;
  /// Fault injected on THIS candidate's sends (chaos testing: kill the
  /// first standby too and prove the second one finishes).
  net::FaultPlan dest_fault_plan{};
};

/// Ordered candidate destinations for a failover. Each candidate is
/// dialed up to 1 + RunOptions::max_retries times, paced by the retry
/// backoff (endpoint_util.hpp), before the next one is tried.
struct FailoverPolicy {
  std::vector<DestinationCandidate> standbys;

  [[nodiscard]] bool enabled() const noexcept { return !standbys.empty(); }
};

struct RunOptions {
  /// Registers application types into a TypeTable; executed independently
  /// on both hosts (the paper pre-distributes the transformed program).
  std::function<void(ti::TypeTable&)> register_types;

  /// The migratable program. Runs on the source; re-runs on the
  /// destination to restore and finish.
  std::function<void(MigContext&)> program;

  /// Migrate at the Nth executed poll-point (0 = run to completion). A
  /// scheduler can also request migration asynchronously through
  /// MigContext::request_migration(); whichever fires first wins.
  std::uint64_t migrate_at_poll = 0;

  Transport transport = Transport::Memory;
  std::string spool_path = "/tmp/hpm_spool.bin";  ///< Transport::File only

  /// Link model used for the Tx column of the report.
  net::SimulatedLink link = net::SimulatedLink::ethernet_100mbps();

  /// If true, sending actually sleeps per the link model so wall-clock Tx
  /// matches; if false, Tx is computed analytically from the byte count.
  bool throttle = false;

  /// --- pipelined transfer -------------------------------------------------

  /// Overlap on/off. Every duplex transport runs the same transaction
  /// (StateBegin/StateChunk/StateEnd, then Prepare/Commit) with the
  /// destination up before the program runs. True: the collection DFS
  /// streams fixed-size chunks while still walking the graph, and the
  /// destination restores each prefix as it lands. False: collect first,
  /// then send the retained stream. File transport has no reverse path,
  /// so it always spools the collected stream and ignores this flag.
  bool pipeline = false;

  /// Chunk payload size of the transaction's StateChunks, and the leaf
  /// size of the stream every transport collects (stream grammar v4): its
  /// root, the reported stream_digest, depends on it. Must lie in
  /// [1, msrm::kMaxLeafBytes].
  std::uint32_t chunk_bytes = msrm::kDefaultLeafBytes;

  /// --- fault tolerance ----------------------------------------------------

  /// Extra transfer attempts after the first one fails (timeout, seal
  /// mismatch, disconnect, destination Error). max_retries + 1 total
  /// attempts, each a resume from the chunk count the destination
  /// announces in its ResumeHello or a replay of the stream retained at
  /// collection time; also the per-candidate dial budget of a failover.
  int max_retries = 2;

  /// Deadline applied to every channel send/recv of the transfer protocol
  /// (seconds; 0 = block without bound). When fault injection is enabled
  /// and no deadline is set, a 5 s default is applied so an injected stall
  /// or truncation can never hang the run.
  double io_timeout_seconds = 0;

  /// Deterministic fault injected on the source->destination byte stream
  /// (see net/faulty_channel.hpp). Disabled by default.
  net::FaultPlan fault_plan{};

  /// Fault injected on the destination's channel — most usefully
  /// FaultPlan::kill_after(n) on its sends (Hello, ResumeHello,
  /// ManifestAck, PrepareAck, final Ack) to script a destination crash at
  /// an exact protocol state, or KillOnRecv at a received-byte offset to
  /// kill it mid-stream.
  net::FaultPlan dest_fault_plan{};

  /// --- transactional handoff ----------------------------------------------
  /// Every duplex transfer runs as a resumable, exactly-once transaction:
  /// a retryable mid-stream failure reconnects and resumes from the chunk
  /// count the destination announces in its ResumeHello, out of the
  /// retained stream, instead of retransmitting from byte 0; restoration
  /// is bracketed by a Prepare/Commit/Abort exchange whose decisions are
  /// write-ahead journaled (fsync'd) on both ends when `journal_dir` is
  /// set, so recover() can arbitrate ownership after a crash.

  /// Directory for the intent journals, keyed by the run's transaction
  /// id (source-<txn>.journal / dest-<txn>.journal; see journal.hpp).
  /// Empty = journaling disabled: the handoff still runs two-phase, but
  /// crash arbitration has nothing durable to consult.
  std::string journal_dir;

  /// --- content-addressed dedup (DESIGN.md §15) -----------------------------
  /// When `chunk_cache_dir` names a directory, the transaction runs
  /// dedup'd: the source announces the stream's ordered chunk address
  /// list (ManifestBegin/ManifestChunk), the destination answers with the
  /// indices its persistent ChunkStore in that directory cannot produce
  /// (ManifestAck), and only those misses travel as StateChunks — cache
  /// hits are spliced locally. The destination checks the StateEnd digest
  /// against the root of its own digests of every chunk, received or
  /// verified by the store's load(), so a poisoned cache can never be
  /// restored. Dedup collects the full stream before sending (the
  /// manifest needs every address), forfeiting collect/tx overlap in
  /// exchange for the byte savings.

  /// Directory of the destination's chunk store (byte budget
  /// ChunkStore::kDefaultBudget). Empty = dedup off.
  std::string chunk_cache_dir;

  /// Wire codec offered/accepted for residual misses (negotiated via a
  /// ManifestBegin capability bit; per-chunk raw fallback when encoding
  /// does not pay). WireCodec::None ships misses raw.
  WireCodec wire_codec = WireCodec::None;

  /// --- destination failover (DESIGN.md §16) --------------------------------
  /// When the destination is declared dead — the transport died, or a
  /// wedged session's per-IO deadline fired, past the resume budget — and
  /// standbys are configured, the source re-dials the next candidate
  /// under the next *incarnation* (fencing token), replays the retained
  /// stream from chunk 0, and runs the commit phase against the standby.
  /// The journals carry the incarnation so arbitration names exactly one
  /// committed owner and a revived stale destination is fenced.
  FailoverPolicy failover;
};

/// Final fate of the workload for one run_migration() call.
enum class MigrationOutcome : std::uint8_t {
  CompletedLocally,        ///< no migration was triggered; source ran to completion
  Migrated,                ///< state transferred and restored on the destination
  AbortedContinuedLocally, ///< all transfer attempts failed; source finished locally
  /// The source "crashed" (injected KilledError) mid-transaction. Whether
  /// the destination owns the process is decided by the journals — see
  /// recover(); report.migrated says whether the destination
  /// in fact finished the workload.
  SourceCrashed,
  /// Commit was journaled and sent but the destination's confirmation
  /// never arrived. The destination owns the process (it either received
  /// Commit or recovers to Committed from the journals); the source must
  /// NOT fall back to local completion.
  CommittedUnconfirmed,
};

const char* outcome_name(MigrationOutcome outcome) noexcept;

struct MigrationReport {
  bool migrated = false;
  MigrationOutcome outcome = MigrationOutcome::CompletedLocally;
  /// Transfer attempts made (0 when no migration was triggered).
  int attempts = 0;
  /// One entry per FAILED attempt, in order, e.g.
  /// "attempt 1: destination restore failed: stream digest mismatch ...",
  /// or "failover to standby-1: ..." for a failed failover candidate.
  std::vector<std::string> failure_causes;

  std::uint64_t stream_bytes = 0;
  /// Table 1 "Collect" / "Tx" / "Restore". Span-derived: the `mig.collect`,
  /// `mig.tx`, and `mig.restore` spans of the successful attempt (Tx is
  /// analytically modeled from the link when throttling is off).
  double collect_seconds = 0;
  double tx_seconds = 0;
  double restore_seconds = 0;
  double total_seconds() const noexcept {
    return collect_seconds + tx_seconds + restore_seconds;
  }
  std::uint64_t source_polls = 0;
  std::string source_arch;  ///< architecture name carried in the stream

  /// 1 − wall / (collect + tx + restore), clamped to [0, 1], for a
  /// successful overlapped attempt (wall runs from the first chunk leaving
  /// collection to the destination's acknowledgement). 0 with overlap off
  /// (pipeline false, or File) — collection ends before Tx begins.
  double overlap_ratio = 0;

  /// Chunk sequence the transfer resumed from on the last resume attempt
  /// (-1 = never resumed). A resume retransmits only chunks >= this seq
  /// out of the retained stream.
  std::int64_t resumed_from_seq = -1;

  /// Transaction id of the handoff, derived per run from the wall clock
  /// and increasing within a process; it keys the run's journal files
  /// (0 = no transaction ran: File).
  std::uint64_t txn_id = 0;

  /// End-to-end digest of the canonical stream, the root of its leaf
  /// digests (0 = no stream was collected), reported on every path, File
  /// included. When a transaction migrated, the destination checked it
  /// before voting against the root of its own digests of every chunk as
  /// it was received or loaded, so equal digests across two runs at one
  /// `chunk_bytes` (the leaf size) certify that both destinations got the
  /// same stream (the assembly after that is trusted: DESIGN.md §15).
  std::uint64_t stream_digest = 0;

  /// --- failover accounting (failover.standbys set; 0 otherwise) ------------
  /// Destinations the transaction moved through: 0 until a failover
  /// fires, then the number of re-targets (1 = the first standby won).
  int failovers = 0;
  /// Incarnation of the destination that finally owned the commit phase
  /// (1 = the primary's first binding, higher after a primary retry or a
  /// failover; 0 = no transaction ran).
  std::uint32_t dest_incarnation = 0;
  /// Wall-clock seconds from declaring the previous destination dead to
  /// the winning destination's commit — the availability gap a failover
  /// cost (0 when no failover fired).
  double failover_downtime_seconds = 0;

  /// --- dedup accounting (chunk_cache_dir set; all 0 otherwise) -------------
  std::uint64_t dedup_manifest_chunks = 0;  ///< addresses announced
  std::uint64_t dedup_hit_chunks = 0;       ///< spliced from the destination store
  std::uint64_t dedup_miss_chunks = 0;      ///< transmitted as StateChunks
  /// Bytes the transfer actually put on the wire for state: manifest
  /// frames plus (possibly codec-compressed) miss chunk payloads.
  /// Compare against stream_bytes for the dedup savings.
  std::uint64_t dedup_wire_bytes = 0;

  /// Everything the pipeline recorded during this run: the delta of the
  /// process-wide obs::Registry across run_migration(), so MSRLT search
  /// counts, PNEW/PREF/PNULL mix, XDR throughput, per-channel/frame byte
  /// counts, and the `trace.*` phase histograms are all one lookup away
  /// (e.g. metrics.counter("net.frames.bytes_sent")).
  obs::MetricsSnapshot metrics;
};

/// Run one migration experiment. Throws hpm::MigrationError (and
/// subclasses of hpm::Error) on unrecoverable protocol or restoration
/// failure; recoverable transport failures are retried and, past the
/// retry budget, degrade to local completion instead of throwing.
MigrationReport run_migration(const RunOptions& options);

}  // namespace hpm::mig
