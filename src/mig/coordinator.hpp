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
// DEPRECATED as a public include path: embedders should include
// hpm/migrate.hpp (or hpm/hpm.hpp), which re-exports this header's
// stable surface into the top-level hpm namespace. Only that facade is a
// stability boundary; this header may be reorganized freely.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mig/context.hpp"
#include "mig/journal.hpp"
#include "mig/port.hpp"
#include "mig/wire_codec.hpp"
#include "net/deadline.hpp"
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
/// dialed up to 1 + RunOptions::max_retries times, paced by the
/// retry_backoff_* delays, before the next one is tried.
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

  /// Migrate at the Nth executed poll-point (0 = run to completion).
  std::uint64_t migrate_at_poll = 0;

  /// Asynchronous trigger: a scheduler thread delivers a migration
  /// request this many seconds into the run (0 = disabled). The process
  /// honors it at its next poll-point, like the paper's scheduler-driven
  /// requests. Combines with migrate_at_poll (whichever fires first).
  double request_after_seconds = 0;

  Transport transport = Transport::Memory;
  std::string spool_path = "/tmp/hpm_spool.bin";  ///< Transport::File only

  /// Link model used for the Tx column of the report.
  net::SimulatedLink link = net::SimulatedLink::ethernet_100mbps();

  /// If true, sending actually sleeps per the link model so wall-clock Tx
  /// matches; if false, Tx is computed analytically from the byte count.
  bool throttle = false;

  /// Worker threads for the collection DFS. 1 = the paper's serial
  /// traversal (default); >1 partitions the root set across a pool
  /// (msrm::collect_roots) — the stream stays bit-identical to serial.
  unsigned collect_threads = 1;

  /// --- pipelined transfer -------------------------------------------------

  /// Overlap on/off. Every duplex transport runs the same transaction
  /// (StateBegin/StateChunk/StateEnd, then Prepare/Commit) with the
  /// destination up before the program runs. True: the collection DFS
  /// streams fixed-size chunks while still walking the graph, and the
  /// destination restores each prefix as it lands. False: collect first,
  /// then send the retained stream. File transport has no reverse path,
  /// so it always spools the collected stream and ignores this flag.
  bool pipeline = false;

  /// Chunk payload size of the transaction's StateChunks.
  std::uint32_t chunk_bytes = 64 * 1024;

  /// Benchmark hook forwarded to every restoring context: unwind as soon
  /// as restoration completes instead of running the program tail, so a
  /// harness can time Restore without paying for the computation.
  bool stop_after_restore = false;

  /// --- fault tolerance ----------------------------------------------------

  /// Extra transfer attempts after the first one fails (timeout, CRC
  /// mismatch, disconnect, destination Error/Nack). max_retries + 1 total
  /// attempts, each a resume from the acked watermark or a replay of the
  /// stream retained at collection time; also the per-candidate dial
  /// budget of a failover.
  int max_retries = 2;

  /// Deadline applied to every channel send/recv of the transfer protocol
  /// (seconds; 0 = block without bound). When fault injection is enabled
  /// and no deadline is set, a 5 s default is applied so an injected stall
  /// or truncation can never hang the run.
  double io_timeout_seconds = 0;

  /// Per-IO deadline policy for the transfer protocol. Null = a fixed
  /// policy derived from io_timeout_seconds (bit-for-bit the legacy
  /// behavior); a shared net::DeadlinePolicy::adaptive() lets the
  /// session supervisor's heartbeat RTT samples retune every blocking
  /// call's deadline while the transfer runs.
  std::shared_ptr<net::DeadlinePolicy> deadline_policy;

  /// Delay before the first retry (or failover re-dial); doubles per
  /// retry, capped below. Deterministic (no jitter) so failure schedules
  /// are reproducible.
  double retry_backoff_seconds = 0.01;
  double retry_backoff_cap_seconds = 0.25;

  /// Deterministic fault injected on the source->destination byte stream
  /// (see net/faulty_channel.hpp). Disabled by default.
  net::FaultPlan fault_plan{};

  /// Fault injected on the destination's sends (Hello, StateAck,
  /// PrepareAck, final Ack) — most usefully FaultPlan::kill_after(n) to
  /// script a destination crash at an exact protocol state.
  net::FaultPlan dest_fault_plan{};

  /// --- transactional handoff ----------------------------------------------
  /// Every duplex transfer runs as a resumable, exactly-once transaction:
  /// the destination acks a chunk watermark every `ack_every_chunks`
  /// chunks; a retryable mid-stream failure reconnects and resumes from
  /// the last watermark out of the retained stream instead of
  /// retransmitting from byte 0; restoration is bracketed by a
  /// Prepare/Commit/Abort exchange whose decisions are write-ahead
  /// journaled (fsync'd) on both ends when `journal_dir` is set, so
  /// Coordinator::recover() can arbitrate ownership after a crash.

  /// Chunk-watermark ack cadence of the transaction (0 = no acks, so a
  /// resume would restart from chunk 0).
  std::uint32_t ack_every_chunks = 8;

  /// Directory for the two intent journals (source.journal /
  /// dest.journal). Empty = journaling disabled: the handoff still runs
  /// two-phase, but crash arbitration has nothing durable to consult.
  std::string journal_dir;

  /// Transaction id recorded in the journals and carried in StateBegin.
  /// 0 = derive one from the wall clock (unique across successive runs
  /// appending to the same journal_dir).
  std::uint64_t txn_id = 0;

  /// --- content-addressed dedup (DESIGN.md §15) -----------------------------
  /// When `chunk_cache_dir` names a directory, the transaction runs
  /// dedup'd: the source announces the stream's ordered chunk address
  /// list (ManifestBegin/ManifestChunk), the destination answers with the
  /// indices its persistent ChunkStore in that directory cannot produce
  /// (ManifestAck), and only those misses travel as StateChunks — cache
  /// hits are spliced locally. The StateEnd digest still verifies the
  /// reassembled stream end to end, so a poisoned cache can never be
  /// restored. Dedup collects the full stream before sending (the
  /// manifest needs every address), forfeiting collect/tx overlap in
  /// exchange for the byte savings.

  /// Directory of the destination's chunk store. Empty = dedup off.
  std::string chunk_cache_dir;

  /// Byte budget of the chunk store; least-recently-used entries are
  /// evicted past it.
  std::uint64_t chunk_cache_bytes = 256ull << 20;

  /// Wire codec offered/accepted for residual misses (negotiated via a
  /// ManifestBegin capability bit; per-chunk raw fallback when encoding
  /// does not pay). WireCodec::None ships misses raw.
  WireCodec wire_codec = WireCodec::None;

  /// --- destination failover (DESIGN.md §16) --------------------------------
  /// When the destination is declared dead — the transport died past the
  /// resume budget, or a SessionSupervisor poisoned the wedged session —
  /// and standbys are configured, the source re-dials the next candidate
  /// under the next *incarnation* (fencing token), replays the retained
  /// stream from chunk 0, and runs the commit phase against the standby.
  /// The journals carry the incarnation so arbitration names exactly one
  /// committed owner and a revived stale destination is fenced.
  FailoverPolicy failover;

  /// Directory for the disk spill of the retained stream. Non-empty: the
  /// collected stream is written (fsync'd) to
  /// "<retain_dir>/retained-<txn>.stream" once collection finishes and
  /// the heap copy is freed — resume and failover replay from the file,
  /// so a long standby wait cannot die with source memory pressure.
  /// Empty = the retained stream stays in memory (the pre-failover
  /// behavior).
  std::string retain_dir;
};

/// Final fate of the workload for one run_migration() call.
enum class MigrationOutcome : std::uint8_t {
  CompletedLocally,        ///< no migration was triggered; source ran to completion
  Migrated,                ///< state transferred and restored on the destination
  AbortedContinuedLocally, ///< all transfer attempts failed; source finished locally
  /// The source "crashed" (injected KilledError) mid-transaction. Whether
  /// the destination owns the process is decided by the journals — see
  /// Coordinator::recover(); report.migrated says whether the destination
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

  /// Transaction id of the handoff (0 = no transaction ran: File).
  std::uint64_t txn_id = 0;

  /// End-to-end msrm::StreamDigest of the canonical stream (0 = no stream
  /// was collected), reported on every path, File included. When a
  /// transaction migrated, the destination
  /// verified its reassembled stream against this value before voting, so
  /// equal digests across two runs certify bit-identical restored state.
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

/// Run one migration as a session over caller-provided wiring — the entry
/// point sched::migrate_many drives once per concurrent session, with
/// every wiring.connect() binding a fresh epoch of a shared routed
/// channel. Runs the same transaction as run_migration does on an
/// exclusive channel, primary retries and local degradation included.
/// Journals are keyed by transaction id
/// (keyed_source_journal_name) so concurrent sessions can share one
/// journal_dir; recover with Coordinator::recover(dir, txn). The report's
/// registry-delta `metrics` overlaps between concurrent sessions — the
/// per-session truth is the mig.session.<id>.* instruments.
MigrationReport run_routed_migration(const RunOptions& options,
                                     const SessionWiring& wiring);

/// Object-form entry point plus the crash-recovery half of the
/// transactional handoff.
class Coordinator {
 public:
  explicit Coordinator(RunOptions options) : options_(std::move(options)) {}

  /// Equivalent to run_migration(options).
  MigrationReport run() const { return run_migration(options_); }

  [[nodiscard]] const RunOptions& options() const noexcept { return options_; }

  /// Decide, from the intent journals alone, which endpoint owns the
  /// process after a crash. `journal_dir` is the RunOptions::journal_dir
  /// of the interrupted run; a missing or torn journal file is treated as
  /// empty (crash before any write), never as an error.
  static RecoveryVerdict recover(const std::string& journal_dir);

  /// Per-session recovery for a journal directory shared by concurrent
  /// sessions (sched::migrate_many): arbitrates on the txn-keyed pair
  /// source-<txn>.journal / dest-<txn>.journal.
  static RecoveryVerdict recover(const std::string& journal_dir,
                                 std::uint64_t txn_id);

 private:
  RunOptions options_;
};

}  // namespace hpm::mig
