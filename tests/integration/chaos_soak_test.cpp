// Chaos soak: rounds of randomized concurrent migrations under seeded
// fault injection (kills, wedges), asserting the invariants migrate_many
// promises:
//
//   * no hangs  — every round converges: a wedged session's per-IO
//     deadline (io_timeout_seconds) fires and it resumes from the chunk
//     count its destination announces (ctest TIMEOUT is only the
//     backstop);
//   * exactly one owner — every journaled transaction recovers to a
//     single, unambiguous owner;
//   * sibling isolation — sessions running alongside a victim finish
//     bit-identical to the same workload run alone.
//
// The final test writes an hpm-bench-v1 report (the soak's seed and the
// failover counters) to the path in HPM_CHAOS_JSON when it is set; ctest
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
#include "hpm/migrate.hpp"
#include "mig/journal.hpp"  // internal unit: journal listing, GC and hand-written records
#include "obs/metrics.hpp"

namespace hpm::mig {
namespace {

using net::Transport;

constexpr int kSessions = 6;
constexpr int kRounds = 3;
constexpr int kSeeds[kSessions] = {3, 5, 7, 9, 11, 13};

/// RNG seed driving the soak's randomized fault schedule. Overridable so a
/// CI failure is replayable: re-run with HPM_CHAOS_SEED=<seed from the
/// failure message or the HPM_CHAOS_JSON report's chaos.seed row> to get
/// the identical schedule.
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
/// siblings. Computed once per seed and cached — the soak compares every
/// session against this.
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

/// Per-IO deadline of every wedged session: it bounds how long a
/// blackholed port can hold the session before it resumes. Generous
/// against the workload's real inter-frame gaps: under TSan the whole
/// process runs ~15x slower, and the resumed binding must never trip it.
constexpr double kWedgeTimeoutSeconds = 1.0;

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
    // resume), one stalled (blackholed mid-stream — its per-IO deadline
    // must break the wait, and it too resumes).
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
    jobs[stall_victim].options.io_timeout_seconds = kWedgeTimeoutSeconds;

    const std::vector<SessionOutcome> outcomes = migrate_many(jobs, Transport::Memory);
    ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kSessions));

    for (int i = 0; i < kSessions; ++i) {
      SCOPED_TRACE("session " + std::to_string(i + 1));
      const mig::MigrationReport& r = outcomes[i].report;
      EXPECT_EQ(r.outcome, MigrationOutcome::Migrated) << mig::outcome_name(r.outcome);
      // Sibling isolation: bit-identical to the run alone no matter what
      // happened to the victims running alongside.
      ASSERT_TRUE(results[i].ok());
      EXPECT_EQ(results[i].sum_after, serial_sum(kSeeds[i]));
    }
    // The killed session really died and resumed; so did the wedged one,
    // once its deadline fired.
    EXPECT_GE(outcomes[kill_victim].report.attempts, 2);
    EXPECT_GE(outcomes[stall_victim].report.attempts, 2);

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
      const mig::RecoveryVerdict verdict = mig::recover(round_dir, txn);
      EXPECT_NE(verdict.owner, mig::TxnOwner::None) << "txn " << txn;
      if (verdict.completed) ++expected_swept;
    }
    const std::vector<std::uint64_t> swept = mig::gc_completed_txn_journals(round_dir);
    EXPECT_EQ(swept.size(), expected_swept);
    EXPECT_EQ(mig::list_journaled_txns(round_dir).size(), txns.size() - expected_swept);
  }
}

TEST(ChaosSoak, WedgedSessionResumesOnceItsDeadlineFires) {
  // A blackholed source port errors on nothing: sends vanish and recvs
  // starve. The victim's per-IO deadline is the only thing that ends the
  // wait; the session then resumes from its destination's chunk count on
  // fresh channels while its siblings, which set no deadline, migrate
  // untouched.
  const std::string journal_dir =
      "/tmp/hpm_chaos_wedge_" + std::to_string(::getpid());
  std::filesystem::remove_all(journal_dir);

  constexpr int kWedgeSessions = 4;
  constexpr int kVictim = 1;
  std::vector<apps::BitonicResult> results(kWedgeSessions);
  std::vector<SessionJob> jobs(kWedgeSessions);
  for (int i = 0; i < kWedgeSessions; ++i) {
    jobs[i].options = bitonic_options(kSeeds[i], &results[i]);
    jobs[i].options.journal_dir = journal_dir;
  }
  jobs[kVictim].stall_after_frames = 12;
  jobs[kVictim].options.io_timeout_seconds = kWedgeTimeoutSeconds;

  const std::vector<SessionOutcome> outcomes = migrate_many(jobs, Transport::Memory);
  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kWedgeSessions));

  // The victim resumed and migrated — with the right answer. Siblings
  // migrated on their first attempt.
  const mig::MigrationReport& victim = outcomes[kVictim].report;
  EXPECT_EQ(victim.outcome, MigrationOutcome::Migrated)
      << mig::outcome_name(victim.outcome);
  EXPECT_GE(victim.attempts, 2);
  EXPECT_GE(victim.resumed_from_seq, 0);
  for (int i = 0; i < kWedgeSessions; ++i) {
    SCOPED_TRACE("session " + std::to_string(i + 1));
    if (i != kVictim) {
      EXPECT_EQ(outcomes[i].report.outcome, MigrationOutcome::Migrated);
      EXPECT_EQ(outcomes[i].report.attempts, 1);
    }
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].sum_after, serial_sum(kSeeds[i]));
  }

  // The resumed transaction has exactly one owner: the destination.
  ASSERT_NE(victim.txn_id, 0u);
  const mig::RecoveryVerdict verdict = mig::recover(journal_dir, victim.txn_id);
  EXPECT_EQ(verdict.owner, mig::TxnOwner::Destination) << verdict.reason;
  EXPECT_TRUE(verdict.completed);
  std::filesystem::remove_all(journal_dir);
}

TEST(ChaosSoak, ADriverFailurePropagatesToTheCaller) {
  std::vector<SessionJob> jobs(1);
  jobs[0].options = bitonic_options(kSeeds[0], nullptr);
  jobs[0].options.program = [](mig::MigContext&) {
    throw std::runtime_error("chaos: fatal");
  };
  // An exception that escapes the protocol's own recovery is rethrown by
  // migrate_many once every session has finished.
  EXPECT_THROW(migrate_many(jobs, Transport::Memory), std::runtime_error);
}

// --- journal GC vs live sessions -----------------------------------------
// gc_completed_txn_journals() shares a directory with sessions that are
// still streaming, disconnected, or in doubt. Its contract: a journal
// whose transaction has not logged completion is never collected, no
// matter how often the sweeper runs — a premature unlink would erase the
// intent a resume (or a failover's arbitration) depends on.

TEST(JournalGc, ABeginOnlyJournalSurvivesEverySweep) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / ("hpm_gc_static_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Transaction A is mid-flight: intent opened, no decision yet. Its
  // Begin record IS the live intent recovery replays from.
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

  // A resumable migration that provably spends time mid-stream: its port
  // is severed after a dozen port operations, the session reconnects and
  // resumes from the chunk count its destination announces. The sweeper
  // hammers the directory the whole time.
  apps::BitonicResult result;
  std::vector<SessionJob> jobs(1);
  jobs[0].options = bitonic_options(kSeeds[0], &result);
  jobs[0].options.journal_dir = dir;
  jobs[0].options.max_retries = 2;
  jobs[0].sever_after_frames = 12;  // mid-stream of ~47 chunks

  std::atomic<bool> done{false};
  std::vector<std::uint64_t> swept_live;  // the sweeper's alone until it is joined
  std::thread sweeper([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const std::uint64_t txn : mig::gc_completed_txn_journals(dir)) {
        swept_live.push_back(txn);
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
  EXPECT_EQ(outcomes[0].report.outcome, MigrationOutcome::Migrated)
      << "seed " << chaos_seed() << ": outcome "
      << mig::outcome_name(outcomes[0].report.outcome);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, serial_sum(kSeeds[0]));

  // While the transfer was live the journal was untouchable; completion
  // is the only thing that makes it sweepable, and then exactly once —
  // either the hammer caught the completed pair, or our final sweep does.
  const std::uint64_t txn = outcomes[0].report.txn_id;
  const std::vector<std::uint64_t> final_sweep = mig::gc_completed_txn_journals(dir);
  const auto total = std::count(swept_live.begin(), swept_live.end(), txn) +
                     std::count(final_sweep.begin(), final_sweep.end(), txn);
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
  report.add("failover.triggered",
             static_cast<double>(snap.counter("mig.failover.triggered")), "count");
  report.add("failover.redirects",
             static_cast<double>(snap.counter("mig.failover.redirects")), "count");
  report.add("failover.fenced",
             static_cast<double>(snap.counter("mig.failover.fenced")), "count");
  // Failover downtime (decision → standby streaming again). Rows appear
  // once any suite in this process exercised a redirect.
  report.add_percentiles("mig.failover.downtime_seconds");
  ASSERT_TRUE(report.write(path));
}

}  // namespace
}  // namespace hpm::mig
