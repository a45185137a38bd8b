// The session entry and a fleet of concurrent migrations: migrate_many
// runs run_session once per job, each session on its own exclusive
// channels (DESIGN.md §12).
//
// Internal header: embedders include hpm/migrate.hpp, which re-exports
// this header's SessionJob, SessionOutcome and migrate_many into the
// top-level hpm namespace; this header's layout is not a stability
// boundary.
#pragma once

#include <cstdint>
#include <vector>

#include "mig/coordinator.hpp"
#include "mig/port.hpp"

namespace hpm::mig {

/// Wiring for one session on exclusive channels: every connect() builds a
/// brand-new physical channel pair (options.transport; Memory or Socket),
/// applies the run's fault plans and throttle, and hands back DirectPorts
/// — so a resume or a retry never shares a byte with the binding it
/// replaces. connect_standby does the same per failover candidate. A
/// socket listener rides along as the ports' keepalive so its fd outlives
/// the conversation. `options` must outlive the wiring.
SessionWiring exclusive_wiring(const RunOptions& options, std::uint32_t session_id);

/// Run one migration as a session over caller-provided wiring: the
/// transaction of run_migration on a duplex transport — resumes, primary
/// retries, failover, local degradation and the io_timeout_seconds
/// deadline included. run_migration is this over exclusive_wiring(options,
/// 0); migrate_many runs it once per job. Journals are keyed by
/// transaction id, so concurrent sessions can share one journal_dir;
/// recover with recover(dir, txn). The report's registry-delta `metrics`
/// overlaps between concurrent sessions — the per-session truth is the
/// mig.session.<id>.* instruments.
MigrationReport run_session(const RunOptions& options, const SessionWiring& wiring);

/// One migration submitted to migrate_many.
struct SessionJob {
  /// The run's options, honoured as run_migration honours them: fault
  /// plans, throttle, deadline, journal, dedup and failover included.
  /// `transport` is ignored; migrate_many's argument names it.
  RunOptions options;

  /// Deterministic mid-stream kill: cut this session's source-side port
  /// after this many port operations — sends and recvs alike, in the
  /// source's one fixed order — on its FIRST binding (-1 = never). The
  /// session then reconnects on fresh channels and resumes from the chunk
  /// count its destination announces while the other sessions proceed
  /// untouched.
  std::int64_t sever_after_frames = -1;

  /// Deterministic mid-stream WEDGE: after this many port operations on
  /// the session's first binding, its source port blackholes — sends
  /// vanish, recvs starve — while the channel itself stays healthy (-1 =
  /// never). Unlike a severance this produces no error of its own: the
  /// per-IO deadline (options.io_timeout_seconds) must fire, after which
  /// the session resumes from its destination's chunk count.
  std::int64_t stall_after_frames = -1;
};

/// Result of one session driven by migrate_many.
struct SessionOutcome {
  std::uint32_t session_id = 0;  ///< 1-based, in submission order
  MigrationReport report;
};

/// Run every job as a concurrent migration session, one driver thread
/// each, over `transport` (Memory or Socket; File has no duplex
/// rendezvous and throws). Session i+1 runs the full transactional
/// protocol (run_session) on its own exclusive channels, so journals land
/// keyed by txn in each job's journal_dir and per-session telemetry lands
/// under mig.session.<id>.*. Outcomes are returned in submission order; a
/// session that throws outside the protocol's own recovery propagates
/// after every other session has finished.
std::vector<SessionOutcome> migrate_many(const std::vector<SessionJob>& jobs,
                                         net::Transport transport);

}  // namespace hpm::mig
