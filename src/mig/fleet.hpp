// A fleet of concurrent real migrations over one shared channel:
// migrate_many drives run_routed_migration once per job, each session on
// its own routed epoch of a FrameRouter pair, with optional admission
// control, failure quarantine and supervision (DESIGN.md §13).
//
// Embedders should include hpm/migrate.hpp (or hpm/hpm.hpp), which
// re-exports this header's names into the top-level hpm namespace; this
// header's layout is not a stability boundary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mig/coordinator.hpp"
#include "mig/supervisor.hpp"

namespace hpm::mig {

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
  /// (-1 = never). Unlike a severance this produces no error for a
  /// deadline to catch; only the supervisor's progress watermark
  /// (FleetOptions::supervise) can detect and cancel it.
  std::int64_t stall_after_frames = -1;

  /// Declared state volume for FleetOptions::byte_budget admission
  /// (0 = counts only against max_sessions, not the byte budget).
  std::uint64_t est_state_bytes = 0;
};

/// Why a SessionOutcome's report does — or does not — exist.
enum class SessionStatus : std::uint8_t {
  Completed,  ///< the session ran; report holds its outcome
  Busy,       ///< rejected at admission (session table / byte budget full)
  Poisoned,   ///< quarantined after max_job_failures driver failures
};

const char* session_status_name(SessionStatus status) noexcept;

/// Result of one session driven by migrate_many.
struct SessionOutcome {
  std::uint32_t session_id = 0;  ///< 1-based, in submission order
  SessionStatus status = SessionStatus::Completed;
  MigrationReport report;  ///< meaningful only when status == Completed
  /// One entry per failed driver attempt ("attempt 2: ..."), i.e.
  /// exceptions that escaped the protocol's own recovery. Distinct from
  /// report.failure_causes, which tracks transfer attempts INSIDE a run.
  std::vector<std::string> failure_causes;
};

/// Fleet-level policy for migrate_many: admission control, failure
/// quarantine, and per-session supervision (DESIGN.md §13).
struct FleetOptions {
  /// Concurrent-session cap (0 = unbounded). Jobs beyond the cap are
  /// rejected with SessionStatus::Busy in submission order — a full
  /// table answers "busy", it does not queue.
  std::size_t max_sessions = 0;

  /// Total admitted est_state_bytes cap (0 = unbounded).
  std::uint64_t byte_budget = 0;

  /// Driver failures (exceptions escaping run_routed_migration) a job
  /// may accrue before it is quarantined with SessionStatus::Poisoned.
  /// 0 = legacy semantics: the FIRST driver failure propagates out of
  /// migrate_many after all sessions finish.
  int max_job_failures = 0;

  /// Attach a SessionSupervisor to the shared channel: per-session
  /// heartbeats, a fresh adaptive IO deadline per session (it replaces
  /// the fixed one from RunOptions::io_timeout_seconds), and targeted
  /// cancellation of wedged sessions.
  bool supervise = false;

  /// Supervisor knobs (heartbeat cadence, miss budget, stall bound,
  /// RTT clamps, snapshot path) when supervise is true.
  LivenessConfig liveness{};
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

/// The supervised flavour: same multiplexing, plus FleetOptions admission
/// control, failure quarantine, and (when fleet.supervise) a
/// SessionSupervisor watching every admitted session — heartbeat RTTs
/// feed each session's adaptive deadline policy, and a wedged session is
/// cancelled in place while its siblings finish untouched. The plain
/// overload is exactly migrate_many(jobs, transport, FleetOptions{}).
std::vector<SessionOutcome> migrate_many(const std::vector<SessionJob>& jobs,
                                         net::Transport transport,
                                         const FleetOptions& fleet);

}  // namespace hpm::mig
