// Chaos soak: rounds of randomized multiplexed migrations under seeded
// fault injection (kills, stalls) with the supervisor armed, asserting the
// liveness invariants the fleet layer promises:
//
//   * no hangs  — every round converges (ctest TIMEOUT is the backstop,
//     the wedge-detection bound below is the real assertion);
//   * no leaks  — the supervisor registry is empty after every round;
//   * exactly one owner — every journaled transaction recovers to a
//     single, unambiguous owner;
//   * sibling isolation — sessions sharing the wire with a victim finish
//     bit-identical to the same workload run alone on a private channel.
//
// The final test emits the hpm-bench-v1 fleet report (BENCH_fleet.json)
// with the p99 wedge-detection latency when HPM_CHAOS_JSON is set; ctest
// validates it with tools/bench_schema_check.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/bitonic.hpp"
#include "bench/emit.hpp"
#include "mig/coordinator.hpp"
#include "mig/fleet.hpp"
#include "mig/journal.hpp"
#include "obs/metrics.hpp"

namespace hpm::mig {
namespace {

using net::Transport;

constexpr int kSessions = 6;
constexpr int kRounds = 3;
constexpr int kSeeds[kSessions] = {3, 5, 7, 9, 11, 13};

/// RNG seed driving the soak's randomized fault schedule. Overridable so a
/// CI failure is replayable: re-run with HPM_CHAOS_SEED=<seed from the
/// failure message or BENCH_fleet.json> to get the identical schedule.
std::uint32_t chaos_seed() {
  static const std::uint32_t seed = [] {
    if (const char* s = std::getenv("HPM_CHAOS_SEED"); s != nullptr && *s != '\0') {
      return static_cast<std::uint32_t>(std::strtoul(s, nullptr, 0));
    }
    return 0xC0FFEEu;
  }();
  return seed;
}

mig::RunOptions bitonic_options(int seed, apps::BitonicResult* result) {
  mig::RunOptions options;
  options.transport = Transport::Memory;
  options.pipeline = true;
  options.chunk_bytes = 128;  // ~47 chunks: faults always land mid-stream
  options.register_types = apps::bitonic_register_types;
  options.program = [result, seed](mig::MigContext& ctx) {
    apps::bitonic_program(ctx, 6, static_cast<std::uint64_t>(seed), result);
  };
  options.migrate_at_poll = 50;
  return options;
}

/// The workload's ground truth: the same program run alone, no faults, no
/// shared wire. Computed once per seed and cached — the soak compares
/// every routed session against this.
std::uint64_t serial_sum(int seed) {
  static std::map<int, std::uint64_t> cache;
  const auto it = cache.find(seed);
  if (it != cache.end()) return it->second;
  apps::BitonicResult result;
  mig::RunOptions options = bitonic_options(seed, &result);
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_TRUE(result.ok());
  cache[seed] = result.sum_after;
  return result.sum_after;
}

/// Tight liveness so the soak converges fast: 30 ms probes, 4 misses or a
/// 3 s frozen watermark convicts. The deadline floor and the stall timeout
/// are deliberately generous relative to the probe cadence: under TSan the
/// whole process runs ~15x slower, and a healthy-but-instrumented session
/// must never trip a detector meant for a genuinely wedged peer.
mig::LivenessConfig soak_liveness() {
  mig::LivenessConfig liveness;
  liveness.heartbeat_interval_s = 0.03;
  liveness.max_missed_heartbeats = 4;
  liveness.stall_timeout_s = 3.0;
  liveness.rtt.floor_s = 1.0;
  return liveness;
}

TEST(ChaosSoak, RandomizedRoundsConvergeAndSiblingsMatch) {
  std::mt19937 rng(chaos_seed());  // seeded: every CI run replays this schedule
  // Every failure under this test names the seed, so the exact fault
  // schedule is one env var away from a local replay.
  SCOPED_TRACE("chaos seed " + std::to_string(chaos_seed()) +
               " (re-run with HPM_CHAOS_SEED=" + std::to_string(chaos_seed()) +
               " to replay this schedule)");
  // PID-keyed: the default/ASan/TSan trees may run their chaos suites
  // concurrently, and a shared scratch dir would let one instance's
  // remove_all/GC eat another's journals mid-round.
  const std::string journal_dir =
      "/tmp/hpm_chaos_soak_" + std::to_string(::getpid());
  std::filesystem::remove_all(journal_dir);

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::string round_dir = journal_dir + "/round" + std::to_string(round);

    // Two distinct victims per round: one killed (severed mid-stream, must
    // resume), one stalled (blackholed mid-stream — the adaptive deadline
    // or the supervisor must break the wait; either way it converges).
    const int kill_victim = static_cast<int>(rng() % kSessions);
    int stall_victim = static_cast<int>(rng() % kSessions);
    while (stall_victim == kill_victim) stall_victim = static_cast<int>(rng() % kSessions);

    std::vector<apps::BitonicResult> results(kSessions);
    std::vector<SessionJob> jobs(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      jobs[i].options = bitonic_options(kSeeds[i], &results[i]);
      jobs[i].options.journal_dir = round_dir;
    }
    jobs[kill_victim].sever_after_frames = 8 + static_cast<std::int64_t>(rng() % 16);
    jobs[stall_victim].stall_after_frames = 8 + static_cast<std::int64_t>(rng() % 16);

    FleetOptions fleet;
    fleet.supervise = true;
    fleet.liveness = soak_liveness();
    fleet.max_job_failures = 3;

    const std::vector<SessionOutcome> outcomes =
        migrate_many(jobs, Transport::Memory, fleet);
    ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kSessions));

    for (int i = 0; i < kSessions; ++i) {
      SCOPED_TRACE("session " + std::to_string(i + 1));
      EXPECT_EQ(outcomes[i].status, SessionStatus::Completed);
      const mig::MigrationReport& r = outcomes[i].report;
      if (i == stall_victim) {
        // A stalled stream may self-heal (adaptive deadline fires, the
        // session resumes on a fresh epoch) or be convicted by the
        // supervisor and degrade to local completion. Both preserve the
        // workload; a hang is the only unacceptable outcome.
        EXPECT_TRUE(r.outcome == MigrationOutcome::Migrated ||
                    r.outcome == MigrationOutcome::AbortedContinuedLocally)
            << "stall victim ended as " << mig::outcome_name(r.outcome);
      } else {
        EXPECT_EQ(r.outcome, MigrationOutcome::Migrated)
            << mig::outcome_name(r.outcome);
      }
      // Sibling isolation: bit-identical to the exclusive-channel run no
      // matter what happened to the victims sharing the wire.
      ASSERT_TRUE(results[i].ok());
      EXPECT_EQ(results[i].sum_after, serial_sum(kSeeds[i]));
    }
    // The killed session really died and resumed.
    EXPECT_GE(outcomes[kill_victim].report.attempts, 2);

    // No leaked sessions: every driver deregistered, the registry gauge
    // is back to zero.
    const obs::MetricsSnapshot snap = obs::Registry::process().snapshot();
    EXPECT_EQ(snap.gauge("mig.liveness.live_sessions"), 0);

    // Exactly one owner for every journaled transaction, then sweep the
    // completed ones and verify the sweep kept anything still in flight.
    const std::vector<std::uint64_t> txns = mig::list_journaled_txns(round_dir);
    EXPECT_GE(txns.size(), static_cast<std::size_t>(kSessions));
    for (int i = 0; i < kSessions; ++i) {
      const std::uint64_t txn = outcomes[i].report.txn_id;
      EXPECT_TRUE(std::find(txns.begin(), txns.end(), txn) != txns.end())
          << "session " << (i + 1) << " reported txn " << txn
          << " (outcome " << mig::outcome_name(outcomes[i].report.outcome)
          << ", attempts " << outcomes[i].report.attempts
          << ") but no journal file names it";
    }
    std::size_t expected_swept = 0;
    for (const std::uint64_t txn : txns) {
      const mig::RecoveryVerdict verdict = mig::Coordinator::recover(round_dir, txn);
      EXPECT_NE(verdict.owner, mig::TxnOwner::None) << "txn " << txn;
      if (verdict.completed) ++expected_swept;
    }
    const std::vector<std::uint64_t> swept = mig::gc_completed_txn_journals(round_dir);
    EXPECT_EQ(swept.size(), expected_swept);
    EXPECT_EQ(mig::list_journaled_txns(round_dir).size(), txns.size() - expected_swept);
  }

  // The probe machinery really ran across the soak.
  const obs::MetricsSnapshot snap = obs::Registry::process().snapshot();
  EXPECT_GT(snap.counter("mig.liveness.pings"), 0u);
  EXPECT_GT(snap.counter("mig.liveness.pongs"), 0u);
}

TEST(ChaosSoak, WedgedSessionIsDetectedWithinTheAdaptiveDeadline) {
  // Pin the per-IO deadline at the 5 s ceiling (floor == ceiling) so the
  // transfer layer CANNOT time its own way out of the blackhole: only the
  // supervisor's stall detector can break the wedge, and it must do so
  // well inside that deadline.
  const std::string journal_dir =
      "/tmp/hpm_chaos_wedge_" + std::to_string(::getpid());
  std::filesystem::remove_all(journal_dir);

  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();

  constexpr int kWedgeSessions = 4;
  constexpr int kVictim = 1;
  std::vector<apps::BitonicResult> results(kWedgeSessions);
  std::vector<SessionJob> jobs(kWedgeSessions);
  for (int i = 0; i < kWedgeSessions; ++i) {
    jobs[i].options = bitonic_options(kSeeds[i], &results[i]);
    jobs[i].options.journal_dir = journal_dir;
  }
  jobs[kVictim].stall_after_frames = 12;

  FleetOptions fleet;
  fleet.supervise = true;
  fleet.liveness = soak_liveness();
  // Tight enough to convict well inside the 5 s deadline, loose enough
  // that a healthy sibling slowed by a sanitizer build never freezes its
  // watermark past it.
  fleet.liveness.stall_timeout_s = 2.0;
  fleet.liveness.rtt.floor_s = 5.0;
  fleet.liveness.rtt.ceiling_s = 5.0;

  const std::vector<SessionOutcome> outcomes =
      migrate_many(jobs, Transport::Memory, fleet);
  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kWedgeSessions));

  // The victim was convicted and degraded to local completion — with the
  // right answer. Siblings migrated untouched.
  EXPECT_EQ(outcomes[kVictim].report.outcome,
            MigrationOutcome::AbortedContinuedLocally);
  for (int i = 0; i < kWedgeSessions; ++i) {
    SCOPED_TRACE("session " + std::to_string(i + 1));
    if (i != kVictim) {
      EXPECT_EQ(outcomes[i].report.outcome, MigrationOutcome::Migrated);
    }
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].sum_after, serial_sum(kSeeds[i]));
  }

  // Detection happened, and fast: from the victim's last sign of life to
  // the wedge verdict is ~stall_timeout plus a sweep tick — an order of
  // magnitude inside the 5 s deadline the transfer itself was stuck on.
  const obs::MetricsSnapshot delta =
      obs::Registry::process().snapshot().delta_since(before);
  EXPECT_GE(delta.counter("mig.liveness.sessions_wedged"), 1u);
  EXPECT_GE(delta.counter("mig.liveness.cancels"), 1u);
  const obs::MetricsSnapshot full = obs::Registry::process().snapshot();
  const obs::HistogramSummary* detection =
      full.histogram("mig.liveness.detection_seconds");
  ASSERT_NE(detection, nullptr);
  ASSERT_GE(detection->count, 1u);
  EXPECT_LT(detection->max, 3.0);

  // The aborted transaction still has exactly one owner: the source.
  ASSERT_NE(outcomes[kVictim].report.txn_id, 0u);
  const mig::RecoveryVerdict verdict =
      mig::Coordinator::recover(journal_dir, outcomes[kVictim].report.txn_id);
  EXPECT_EQ(verdict.owner, mig::TxnOwner::Source);
  EXPECT_FALSE(verdict.completed);
}

TEST(ChaosSoak, AdmissionControlAnswersBusyInsteadOfQueueing) {
  std::vector<apps::BitonicResult> results(kSessions);
  std::vector<SessionJob> jobs(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    jobs[i].options = bitonic_options(kSeeds[i], &results[i]);
    jobs[i].est_state_bytes = 1000;
  }

  FleetOptions fleet;
  fleet.supervise = true;
  fleet.liveness = soak_liveness();
  fleet.max_sessions = 3;
  fleet.byte_budget = 10000;  // slots bind first here

  const std::vector<SessionOutcome> outcomes =
      migrate_many(jobs, Transport::Memory, fleet);
  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kSessions));
  for (int i = 0; i < kSessions; ++i) {
    SCOPED_TRACE("session " + std::to_string(i + 1));
    EXPECT_EQ(outcomes[i].session_id, static_cast<std::uint32_t>(i + 1));
    if (i < 3) {
      EXPECT_EQ(outcomes[i].status, SessionStatus::Completed);
      EXPECT_EQ(outcomes[i].report.outcome, MigrationOutcome::Migrated);
      EXPECT_TRUE(results[i].ok());
    } else {
      EXPECT_EQ(outcomes[i].status, SessionStatus::Busy);
      // Never started: the workload closure was never invoked.
      EXPECT_FALSE(results[i].ok());
    }
  }

  // Byte budget binds independently of slots: 6 jobs of 1000 bytes
  // against a 2500-byte budget admits exactly the first two.
  std::vector<apps::BitonicResult> budget_results(kSessions);
  std::vector<SessionJob> budget_jobs(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    budget_jobs[i].options = bitonic_options(kSeeds[i], &budget_results[i]);
    budget_jobs[i].est_state_bytes = 1000;
  }
  FleetOptions tight;
  tight.byte_budget = 2500;
  const std::vector<SessionOutcome> budget_outcomes =
      migrate_many(budget_jobs, Transport::Memory, tight);
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(budget_outcomes[i].status,
              i < 2 ? SessionStatus::Completed : SessionStatus::Busy)
        << "session " << i + 1;
  }
}

TEST(ChaosSoak, RepeatOffenderIsQuarantinedNotRetriedForever) {
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();

  apps::BitonicResult healthy_result;
  std::vector<SessionJob> jobs(2);
  jobs[0].options = bitonic_options(kSeeds[0], &healthy_result);
  jobs[1].options = bitonic_options(kSeeds[1], nullptr);
  jobs[1].options.program = [](mig::MigContext&) {
    throw std::runtime_error("chaos: this job always dies");
  };

  FleetOptions fleet;
  fleet.supervise = true;
  fleet.liveness = soak_liveness();
  fleet.max_job_failures = 2;

  const std::vector<SessionOutcome> outcomes =
      migrate_many(jobs, Transport::Memory, fleet);
  ASSERT_EQ(outcomes.size(), 2u);

  // The healthy sibling is untouched by its neighbor's quarantine.
  EXPECT_EQ(outcomes[0].status, SessionStatus::Completed);
  EXPECT_EQ(outcomes[0].report.outcome, MigrationOutcome::Migrated);
  EXPECT_TRUE(healthy_result.ok());

  // The offender got exactly max_job_failures attempts, each recorded,
  // then the Poisoned verdict instead of an infinite retry loop.
  EXPECT_EQ(outcomes[1].status, SessionStatus::Poisoned);
  ASSERT_EQ(outcomes[1].failure_causes.size(), 2u);
  EXPECT_NE(outcomes[1].failure_causes[0].find("always dies"), std::string::npos);

  const obs::MetricsSnapshot delta =
      obs::Registry::process().snapshot().delta_since(before);
  EXPECT_GE(delta.counter("sched.fleet.poisoned"), 1u);
  EXPECT_GE(delta.counter("sched.fleet.job_retries"), 1u);
}

TEST(ChaosSoak, LegacyContractStillRethrowsWithoutQuarantine) {
  std::vector<SessionJob> jobs(1);
  jobs[0].options = bitonic_options(kSeeds[0], nullptr);
  jobs[0].options.program = [](mig::MigContext&) {
    throw std::runtime_error("chaos: fatal");
  };
  // No FleetOptions: the pre-fleet overload must keep its throwing
  // contract bit-for-bit.
  EXPECT_THROW(migrate_many(jobs, Transport::Memory), std::runtime_error);
}

// --- journal GC vs live sessions -----------------------------------------
// gc_completed_txn_journals() shares a directory with sessions that are
// still streaming, disconnected, or in doubt. Its contract: a journal
// whose transaction has not logged completion is never collected, no
// matter how often the sweeper runs — a premature unlink would erase the
// watermark a resume (or a failover's arbitration) depends on.

TEST(JournalGc, ABeginOnlyJournalSurvivesEverySweep) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / ("hpm_gc_static_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Transaction A is mid-flight: intent opened, no decision yet. Its
  // Begin record IS the live watermark recovery replays from.
  constexpr std::uint64_t kLive = 7001;
  const std::string live_src = dir + "/" + mig::keyed_source_journal_name(kLive);
  {
    mig::Journal j(live_src);
    j.append({mig::JournalRecordType::Begin, kLive, 0, 1, "in flight"});
  }
  // Transaction B ran to completion on both sides.
  constexpr std::uint64_t kDone = 7002;
  {
    mig::Journal s(dir + "/" + mig::keyed_source_journal_name(kDone));
    s.append({mig::JournalRecordType::Begin, kDone, 9, 1, ""});
    s.append({mig::JournalRecordType::Commit, kDone, 9, 1, ""});
    s.append({mig::JournalRecordType::Done, kDone, 9, 1, ""});
    mig::Journal d(dir + "/" + mig::keyed_dest_journal_name(kDone));
    d.append({mig::JournalRecordType::Begin, kDone, 9, 1, ""});
    d.append({mig::JournalRecordType::Prepared, kDone, 9, 1, ""});
    d.append({mig::JournalRecordType::Committed, kDone, 9, 1, ""});
  }

  const std::vector<std::uint64_t> first = mig::gc_completed_txn_journals(dir);
  ASSERT_EQ(first, std::vector<std::uint64_t>{kDone});
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(mig::gc_completed_txn_journals(dir).empty())
        << "sweep " << i << " collected something with txn " << kLive
        << " still live (seed " << chaos_seed() << ")";
    EXPECT_TRUE(fs::exists(live_src));
  }

  // The moment A completes it becomes sweepable — and only then.
  {
    mig::Journal j(live_src);
    j.append({mig::JournalRecordType::Commit, kLive, 0, 1, ""});
    j.append({mig::JournalRecordType::Done, kLive, 0, 1, ""});
  }
  EXPECT_EQ(mig::gc_completed_txn_journals(dir), std::vector<std::uint64_t>{kLive});
  EXPECT_FALSE(fs::exists(live_src));
  fs::remove_all(dir);
}

TEST(JournalGc, RacingASweeperAgainstAResumableSessionLosesGracefully) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / ("hpm_gc_race_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);

  // A resumable routed migration that provably spends time with a live
  // watermark: its port is severed mid-stream, the session reconnects
  // and resumes from the acked chunk. Only the routed path writes the
  // keyed journal names ("source-<txn>.journal") the sweeper manages —
  // run_migration's exclusive pair is outside GC's jurisdiction by
  // design. The sweeper hammers the directory the whole time.
  constexpr std::uint64_t kTxn = 7100;
  apps::BitonicResult result;
  std::vector<SessionJob> jobs(1);
  jobs[0].options = bitonic_options(kSeeds[0], &result);
  jobs[0].options.journal_dir = dir;
  jobs[0].options.txn_id = kTxn;
  jobs[0].options.max_retries = 2;
  jobs[0].options.ack_every_chunks = 1;
  jobs[0].sever_after_frames = 12;  // mid-stream of ~47 chunks

  std::atomic<bool> done{false};
  std::atomic<int> swept_live{0};
  std::thread sweeper([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const std::uint64_t txn : mig::gc_completed_txn_journals(dir)) {
        if (txn == kTxn) swept_live.fetch_add(1);
      }
    }
  });
  const std::vector<SessionOutcome> outcomes =
      migrate_many(jobs, Transport::Memory);
  done.store(true, std::memory_order_release);
  sweeper.join();

  // The sweeper never got in the way: the severance was resumed, the
  // handoff committed, and the restored state matches ground truth.
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, SessionStatus::Completed);
  EXPECT_EQ(outcomes[0].report.outcome, MigrationOutcome::Migrated)
      << "seed " << chaos_seed() << ": outcome "
      << mig::outcome_name(outcomes[0].report.outcome);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, serial_sum(kSeeds[0]));

  // While the watermark was live the journal was untouchable; completion
  // is the only thing that makes it sweepable, and then exactly once —
  // either the hammer caught the completed pair, or our final sweep does.
  const std::vector<std::uint64_t> final_sweep = mig::gc_completed_txn_journals(dir);
  const int total =
      swept_live.load() + static_cast<int>(std::count(final_sweep.begin(),
                                                      final_sweep.end(), kTxn));
  EXPECT_EQ(total, 1) << "transaction swept " << total << " times";
  EXPECT_TRUE(mig::gc_completed_txn_journals(dir).empty());
  fs::remove_all(dir);
}

// Declared last on purpose: gtest runs suites in registration order, so
// every soak round above has already fed the process registry when this
// report snapshots it.
TEST(ChaosSoakReport, EmitsFleetBenchJson) {
  const char* path = std::getenv("HPM_CHAOS_JSON");
  if (path == nullptr || *path == '\0') {
    GTEST_SKIP() << "HPM_CHAOS_JSON not set; no report requested";
  }
  const obs::MetricsSnapshot snap = obs::Registry::process().snapshot();
  bench::BenchReport report("chaos_soak", /*smoke=*/false);
  // Reproducibility: the seed that drove this soak's fault schedule rides
  // along in the report, so a regression spotted in CI artifacts can be
  // replayed exactly (HPM_CHAOS_SEED).
  report.add("chaos.seed", static_cast<double>(chaos_seed()), "seed");
  report.add("liveness.pings", static_cast<double>(snap.counter("mig.liveness.pings")),
             "count");
  report.add("liveness.pongs", static_cast<double>(snap.counter("mig.liveness.pongs")),
             "count");
  report.add("liveness.sessions_wedged",
             static_cast<double>(snap.counter("mig.liveness.sessions_wedged")), "count");
  report.add("fleet.busy_rejections",
             static_cast<double>(snap.counter("sched.fleet.busy_rejections")), "count");
  report.add("fleet.poisoned", static_cast<double>(snap.counter("sched.fleet.poisoned")),
             "count");
  report.add("failover.triggered",
             static_cast<double>(snap.counter("mig.failover.triggered")), "count");
  report.add("failover.redirects",
             static_cast<double>(snap.counter("mig.failover.redirects")), "count");
  report.add("failover.fenced",
             static_cast<double>(snap.counter("mig.failover.fenced")), "count");
  report.add_percentiles("mig.liveness.detection_seconds");
  report.add_percentiles("mig.liveness.rtt_seconds");
  // Failover downtime (decision → standby streaming again). Rows appear
  // once any suite in this process exercised a redirect.
  report.add_percentiles("mig.failover.downtime_seconds");
  ASSERT_TRUE(report.write(path));
}

}  // namespace
}  // namespace hpm::mig
