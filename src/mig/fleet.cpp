// migrate_many: N real migrations multiplexed over one shared channel.
//
// One FrameRouter per endpoint owns the shared duplex channel; each job's
// SessionWiring opens routed ports on both routers, so a connect() during
// resume bumps the session's epoch on BOTH ends before any new-epoch
// frame can be sent. The per-session protocol itself is exactly the
// exclusive-channel one (run_routed_migration).
//
// The FleetOptions overload adds the failure-containment ring around the
// multiplexing: admission control (a bounded session table that answers
// Busy instead of queueing), per-session supervision (heartbeats +
// adaptive deadlines + targeted cancellation of wedged sessions), and
// quarantine (a job whose driver keeps throwing is Poisoned instead of
// retried forever). Session ids are NEVER reused across a job's retry
// attempts — a cancelled id is poisoned permanently at the routers, so a
// retry gets a fresh id while outcome rows keep the submission-order id.
#include "mig/fleet.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "mig/endpoint_util.hpp"
#include "mig/frame_router.hpp"
#include "net/factory.hpp"
#include "obs/metrics.hpp"

namespace hpm::mig {

namespace {

std::uint64_t wall_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* session_status_name(SessionStatus status) noexcept {
  switch (status) {
    case SessionStatus::Completed: return "completed";
    case SessionStatus::Busy: return "busy";
    case SessionStatus::Poisoned: return "poisoned";
  }
  return "?";
}

std::vector<SessionOutcome> migrate_many(const std::vector<SessionJob>& jobs,
                                         net::Transport transport) {
  return migrate_many(jobs, transport, FleetOptions{});
}

std::vector<SessionOutcome> migrate_many(const std::vector<SessionJob>& jobs,
                                         net::Transport transport,
                                         const FleetOptions& fleet) {
  if (transport == net::Transport::File) {
    throw MigrationError(
        "migrate_many needs a duplex transport (Memory or Socket); File has "
        "no rendezvous to multiplex");
  }
  std::vector<SessionOutcome> outcomes(jobs.size());
  if (jobs.empty()) return outcomes;

  // --- admission: a bounded table, filled in submission order ------------
  // Deterministic by design: whether job i is admitted depends only on the
  // jobs before it, never on scheduling races, so rejection is fair and a
  // test can predict exactly which submissions hear Busy.
  std::vector<bool> admitted(jobs.size(), true);
  {
    std::size_t table = 0;
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const bool slot_ok = fleet.max_sessions == 0 || table < fleet.max_sessions;
      // Compared against the remaining budget: `bytes` never exceeds it,
      // so the subtraction cannot wrap where a sum could.
      const bool bytes_ok = fleet.byte_budget == 0 ||
                            jobs[i].est_state_bytes <= fleet.byte_budget - bytes;
      if (slot_ok && bytes_ok) {
        ++table;
        bytes += jobs[i].est_state_bytes;
      } else {
        admitted[i] = false;
        outcomes[i].session_id = static_cast<std::uint32_t>(i + 1);
        outcomes[i].status = SessionStatus::Busy;
        obs::Registry::process().counter("sched.fleet.busy_rejections").add(1);
      }
    }
  }

  net::ChannelPair channels = net::make_channel_pair(transport, {});
  std::shared_ptr<void> keep(std::move(channels.listener));
  const auto src_router =
      std::make_shared<FrameRouter>(std::move(channels.source), keep);
  const auto dst_router =
      std::make_shared<FrameRouter>(std::move(channels.destination), keep);

  std::unique_ptr<SessionSupervisor> supervisor;
  if (fleet.supervise) {
    supervisor = std::make_unique<SessionSupervisor>(fleet.liveness);
    supervisor->attach(src_router, dst_router);
  }

  std::vector<std::exception_ptr> errors(jobs.size());
  std::vector<std::thread> drivers;
  drivers.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!admitted[i]) continue;
    drivers.emplace_back([&, i] {
      outcomes[i].session_id = static_cast<std::uint32_t>(i + 1);
      int failures = 0;
      for (int attempt = 0;; ++attempt) {
        // A poisoned router binding is permanent, so every retry attempt
        // runs under a FRESH session id; the outcome row keeps the
        // submission-order id regardless.
        const auto id = static_cast<std::uint32_t>(
            i + 1 + static_cast<std::size_t>(attempt) * jobs.size());
        RunOptions options = jobs[i].options;
        if (options.txn_id == 0) {
          // Same derivation run_routed_migration would use — fixed here
          // so the supervisor's registry can show the txn it watches.
          options.txn_id = (wall_clock_ns() << 10) | (id & 0x3FFu);
        }
        const auto token = std::make_shared<CancelToken>();
        SessionWiring wiring;
        wiring.session_id = id;
        if (supervisor != nullptr) {
          // Each session gets its own adaptive policy: the supervisor's
          // heartbeat RTTs retune this session's deadlines, not a global.
          wiring.deadline = net::DeadlinePolicy::adaptive(fleet.liveness.rtt);
        }
        // Fault scripts target the first epoch only: the resumed binding
        // must be able to finish the transfer.
        auto first_epoch = std::make_shared<std::atomic<bool>>(true);
        const std::int64_t sever = jobs[i].sever_after_frames;
        const std::int64_t stall = jobs[i].stall_after_frames;
        wiring.connect = [src_router, dst_router, id, first_epoch, sever, stall,
                          token] {
          PortPair pair;
          pair.source = src_router->open(id);
          pair.destination = dst_router->open(id);
          if (first_epoch->exchange(false)) {
            if (sever >= 0) {
              pair.source = std::make_unique<SeveringPort>(
                  std::move(pair.source), static_cast<std::uint32_t>(sever));
            } else if (stall >= 0) {
              pair.source = std::make_unique<BlackholePort>(
                  std::move(pair.source), static_cast<std::uint32_t>(stall), token);
            }
          }
          return pair;
        };
        if (options.failover.enabled()) {
          // A supervisor-cancelled session's binding is poisoned for good
          // (the router refuses fresh epochs), so the standby dials under
          // a DERIVED session id far outside the retry-id sequence: the
          // failover escapes the quarantined binding instead of inheriting
          // its wedge. Candidate k of session `id` gets a deterministic id
          // in a reserved high band.
          wiring.connect_standby = [src_router, dst_router, id](std::size_t k) {
            const std::uint32_t sid =
                (id & 0x00FFFFFFu) | 0x40000000u |
                (static_cast<std::uint32_t>(k + 1) << 24);
            PortPair pair;
            pair.source = src_router->open(sid);
            pair.destination = dst_router->open(sid);
            return pair;
          };
        }
        if (supervisor != nullptr) {
          SessionHooks hooks;
          hooks.txn_id = options.txn_id;
          hooks.deadline = wiring.deadline;
          hooks.token = token;
          // Frames delivered by EITHER router: chunk flow shows up on the
          // destination's counter, acks and commit traffic on the source's.
          hooks.progress = [src_router, dst_router, id] {
            return src_router->delivered(id) + dst_router->delivered(id);
          };
          supervisor->register_session(id, std::move(hooks));
        }
        try {
          outcomes[i].report = run_routed_migration(options, wiring);
          outcomes[i].status = SessionStatus::Completed;
          if (supervisor != nullptr) supervisor->deregister(id);
          return;
        } catch (...) {
          if (supervisor != nullptr) supervisor->deregister(id);
          ++failures;
          if (fleet.max_job_failures <= 0) {
            // Legacy contract: the first driver failure propagates after
            // every other session has finished.
            errors[i] = std::current_exception();
            return;
          }
          outcomes[i].failure_causes.push_back(
              "attempt " + std::to_string(failures) + ": " +
              exception_text(std::current_exception()));
          if (failures >= fleet.max_job_failures) {
            outcomes[i].status = SessionStatus::Poisoned;
            obs::Registry::process().counter("sched.fleet.poisoned").add(1);
            // Nothing may reuse the quarantined job's last id either.
            src_router->poison(id, "job quarantined after repeated failures");
            dst_router->poison(id, "job quarantined after repeated failures");
            return;
          }
          obs::Registry::process().counter("sched.fleet.job_retries").add(1);
        }
      }
    });
  }
  for (std::thread& t : drivers) t.join();

  if (supervisor != nullptr) {
    // Final registry snapshot (normally empty — every session
    // deregistered) so `hpmtool sessions --live` never reads a torn file,
    // then stop the sweep before the routers it pings are torn down.
    if (!fleet.liveness.snapshot_path.empty()) {
      supervisor->write_snapshot(fleet.liveness.snapshot_path);
    }
    supervisor->stop();
  }

  // All sessions are done: tear the shared wire down before rethrowing so
  // a failing session cannot leak the routers' pump threads.
  src_router->shutdown();
  dst_router->shutdown();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return outcomes;
}

}  // namespace hpm::mig
