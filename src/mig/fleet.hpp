// A fleet of concurrent real migrations over one shared channel:
// migrate_many drives run_routed_migration once per job, each session on
// its own routed epoch of a FrameRouter pair (DESIGN.md §12).
//
// Internal header: embedders include hpm/migrate.hpp, which re-exports
// this header's names into the top-level hpm namespace; this header's
// layout is not a stability boundary.
#pragma once

#include <cstdint>
#include <vector>

#include "mig/coordinator.hpp"
#include "mig/port.hpp"

namespace hpm::mig {

/// Run one migration as a session over caller-provided wiring — the entry
/// point migrate_many drives once per concurrent session, with every
/// wiring.connect() binding a fresh epoch of a shared routed channel.
/// Runs the same transaction as run_migration does on an exclusive
/// channel, primary retries, local degradation and the io_timeout_seconds
/// deadline included. Journals are keyed by transaction id, as
/// run_migration's are, so concurrent sessions can share one journal_dir;
/// recover with recover(dir, txn). The report's registry-delta `metrics`
/// overlaps between concurrent sessions — the per-session truth is the
/// mig.session.<id>.* instruments.
MigrationReport run_routed_migration(const RunOptions& options,
                                     const SessionWiring& wiring);

/// One migration submitted to migrate_many.
struct SessionJob {
  RunOptions options;

  /// Deterministic mid-stream kill: cut this session's source-side port
  /// after it has carried this many frames on its FIRST epoch (-1 =
  /// never). The session then reconnects and resumes from the acked
  /// watermark while the other multiplexed sessions proceed untouched.
  std::int64_t sever_after_frames = -1;

  /// Deterministic mid-stream WEDGE: after this many port operations on
  /// the session's first epoch, its source port blackholes — sends
  /// vanish, recvs starve — while the shared channel stays healthy
  /// (-1 = never). Unlike a severance this produces no error of its own:
  /// the per-IO deadline (options.io_timeout_seconds) must fire, after
  /// which the session resumes from its acked watermark.
  std::int64_t stall_after_frames = -1;
};

/// Result of one session driven by migrate_many.
struct SessionOutcome {
  std::uint32_t session_id = 0;  ///< 1-based, in submission order
  MigrationReport report;
};

/// Run every job as a concurrent migration session multiplexed over ONE
/// shared duplex channel pair (Memory or Socket; File has no duplex
/// rendezvous and throws). Session i+1 gets frame-router ports tagged
/// with its id on both ends; each runs the full pipelined transactional
/// protocol (run_routed_migration), so journals land keyed by txn in
/// each job's journal_dir and per-session telemetry lands under
/// mig.session.<id>.*. Outcomes are returned in submission order; a
/// session that throws outside the protocol's own recovery propagates
/// after every other session has finished.
std::vector<SessionOutcome> migrate_many(const std::vector<SessionJob>& jobs,
                                         net::Transport transport);

}  // namespace hpm::mig
