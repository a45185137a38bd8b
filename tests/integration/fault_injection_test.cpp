// Fault-tolerance matrix: every injected fault kind crossed with every
// transport must end in one of exactly two outcomes — the migration
// succeeds within the retry budget, or the source abandons it and finishes
// the computation locally. Never a hang (each attempt is deadline-bounded)
// and never a lost workload (the result always matches a no-migration run).
// On the duplex transports every handoff is the voted transaction: each
// source Commit record is matched by a destination Prepared record.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "apps/bitonic.hpp"
#include "hpm/migrate.hpp"
#include "mig/endpoint_util.hpp"  // internal unit: io_deadline
#include "mig/journal.hpp"        // internal unit: Journal::replay of each vote

namespace hpm {
namespace {

bool file_exists(const std::string& p) {
  struct stat st{};
  return ::stat(p.c_str(), &st) == 0;
}

const char* short_transport_name(mig::Transport t) {
  switch (t) {
    case mig::Transport::Memory: return "mem";
    case mig::Transport::Socket: return "sock";
    case mig::Transport::File: return "file";
  }
  return "?";
}

/// Bitonic sort migrated mid-recursion; result.ok() checks the final
/// sorted output, i.e. "identical to a no-migration run".
mig::MigrationReport run_bitonic(mig::RunOptions& options, apps::BitonicResult& result) {
  options.register_types = apps::bitonic_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::bitonic_program(ctx, 4, 5, &result);
  };
  options.migrate_at_poll = 20;
  return mig::run_migration(options);
}

struct FaultCase {
  net::FaultKind kind;
  mig::Transport transport;
};

std::string case_name(const ::testing::TestParamInfo<FaultCase>& info) {
  return std::string(net::fault_kind_name(info.param.kind)) + "_" +
         short_transport_name(info.param.transport);
}

class FaultMatrix : public ::testing::TestWithParam<FaultCase> {};

/// Every source Commit of transaction `txn` names a vote: some destination
/// journal holds a Prepared record with the same txn, incarnation and
/// digest.
void expect_every_commit_voted(const std::string& journal_dir, std::uint64_t txn) {
  const std::vector<mig::JournalRecord> src =
      mig::Journal::replay(journal_dir + "/" + mig::keyed_source_journal_name(txn));
  std::vector<mig::JournalRecord> prepared;
  for (const std::string& path : mig::dest_journal_paths(journal_dir, txn)) {
    for (const mig::JournalRecord& r : mig::Journal::replay(path)) {
      if (r.type == mig::JournalRecordType::Prepared) prepared.push_back(r);
    }
  }
  int commits = 0;
  for (const mig::JournalRecord& c : src) {
    if (c.type != mig::JournalRecordType::Commit) continue;
    ++commits;
    bool voted = false;
    for (const mig::JournalRecord& p : prepared) {
      voted = voted || (p.txn_id == c.txn_id && p.incarnation == c.incarnation &&
                        p.digest == c.digest);
    }
    EXPECT_TRUE(voted) << "source Commit for incarnation " << c.incarnation
                       << " has no matching destination Prepared record";
  }
  EXPECT_EQ(commits, 1);
}

TEST_P(FaultMatrix, OneFaultIsAbsorbedByRetry) {
  const FaultCase fc = GetParam();
  apps::BitonicResult result;
  mig::RunOptions options;
  options.transport = fc.transport;
  options.spool_path = std::string("/tmp/hpm_fault_spool_") +
                       net::fault_kind_name(fc.kind) + ".bin";
  const std::string journal_dir =
      (std::filesystem::temp_directory_path() /
       ("hpm_fault_journal_" + std::to_string(::getpid()) + "_" +
        net::fault_kind_name(fc.kind) + "_" + short_transport_name(fc.transport)))
          .string();
  std::filesystem::remove_all(journal_dir);
  options.journal_dir = journal_dir;
  options.io_timeout_seconds = 0.25;
  options.fault_plan.kind = fc.kind;
  options.fault_plan.offset = 64;  // inside the State frame payload
  options.fault_plan.length = 4;
  options.fault_plan.stall_seconds = 0.6;  // > io_timeout: the peer's deadline fires
  options.fault_plan.max_firings = 1;      // attempt 1 faulted, attempt 2 clean
  const mig::MigrationReport report = run_bitonic(options, result);
  EXPECT_TRUE(result.ok()) << "workload result must survive the fault";
  EXPECT_EQ(report.outcome, mig::MigrationOutcome::Migrated);
  EXPECT_TRUE(report.migrated);
  EXPECT_EQ(report.attempts, 2) << "attempt 1 absorbs the fault, attempt 2 lands";
  ASSERT_EQ(report.failure_causes.size(), 1u);
  EXPECT_NE(report.failure_causes[0].find("attempt 1"), std::string::npos)
      << report.failure_causes[0];
  if (fc.transport != mig::Transport::File) {
    expect_every_commit_voted(journal_dir, report.txn_id);
  }
  std::filesystem::remove_all(journal_dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsAllTransports, FaultMatrix,
    ::testing::Values(
        FaultCase{net::FaultKind::Truncate, mig::Transport::Memory},
        FaultCase{net::FaultKind::Truncate, mig::Transport::Socket},
        FaultCase{net::FaultKind::Truncate, mig::Transport::File},
        FaultCase{net::FaultKind::Corrupt, mig::Transport::Memory},
        FaultCase{net::FaultKind::Corrupt, mig::Transport::Socket},
        FaultCase{net::FaultKind::Corrupt, mig::Transport::File},
        FaultCase{net::FaultKind::Stall, mig::Transport::Memory},
        FaultCase{net::FaultKind::Stall, mig::Transport::Socket},
        FaultCase{net::FaultKind::Stall, mig::Transport::File},
        FaultCase{net::FaultKind::Disconnect, mig::Transport::Memory},
        FaultCase{net::FaultKind::Disconnect, mig::Transport::Socket},
        FaultCase{net::FaultKind::Disconnect, mig::Transport::File}),
    case_name);

class PersistentFault : public ::testing::TestWithParam<mig::Transport> {};

TEST_P(PersistentFault, DegradesToLocalCompletion) {
  // The fault never clears: every attempt fails, the retry budget runs
  // out, and the source must finish the computation locally instead of
  // losing it.
  apps::BitonicResult result;
  mig::RunOptions options;
  options.transport = GetParam();
  options.spool_path = "/tmp/hpm_fault_spool_persistent.bin";
  options.io_timeout_seconds = 0.25;
  options.max_retries = 2;
  options.fault_plan.kind = net::FaultKind::Corrupt;
  options.fault_plan.offset = 64;
  options.fault_plan.max_firings = 1000;  // outlives any retry budget
  const mig::MigrationReport report = run_bitonic(options, result);
  EXPECT_TRUE(result.ok()) << "local continuation must produce the no-migration result";
  EXPECT_EQ(report.outcome, mig::MigrationOutcome::AbortedContinuedLocally);
  EXPECT_FALSE(report.migrated);
  EXPECT_EQ(report.attempts, 3);  // 1 + max_retries
  EXPECT_EQ(report.failure_causes.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Transports, PersistentFault,
                         ::testing::Values(mig::Transport::Memory, mig::Transport::Socket,
                                           mig::Transport::File),
                         [](const ::testing::TestParamInfo<mig::Transport>& param_info) {
                           return short_transport_name(param_info.param);
                         });

TEST(FaultInjection, CorruptedFrameIsCaughtByItsSealAndRetransmitted) {
  // The acceptance path for the frame seal: a damaged frame must be
  // detected by the frame seal and retransmitted — visible as a second
  // attempt — and never silently restored into the destination.
  apps::BitonicResult result;
  mig::RunOptions options;
  options.io_timeout_seconds = 1.0;
  options.fault_plan.kind = net::FaultKind::Corrupt;
  options.fault_plan.offset = 100;
  options.fault_plan.length = 8;
  const mig::MigrationReport report = run_bitonic(options, result);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(report.outcome, mig::MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 2);
  ASSERT_EQ(report.failure_causes.size(), 1u);
  EXPECT_NE(report.failure_causes[0].find("attempt 1"), std::string::npos)
      << report.failure_causes[0];
  EXPECT_GE(report.metrics.counter("net.frames.seal_failures"), 1u)
      << "the damage must be a frame-seal catch";
}

TEST(FaultInjection, SeededRandomPlansNeverLoseTheWorkload) {
  // Property sweep: whatever a seeded random plan throws at the protocol,
  // the run terminates in bounded time with the correct result.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    apps::BitonicResult result;
    mig::RunOptions options;
    options.io_timeout_seconds = 0.25;
    options.fault_plan = net::FaultPlan::random(seed);
    options.fault_plan.stall_seconds = 0.4;  // keep the sweep fast but past the deadline
    const mig::MigrationReport report = run_bitonic(options, result);
    EXPECT_TRUE(result.ok()) << "seed " << seed;
    EXPECT_NE(report.outcome, mig::MigrationOutcome::CompletedLocally) << "seed " << seed;
    EXPECT_GE(report.attempts, 1) << "seed " << seed;
  }
}

TEST(FaultInjection, NoTimeoutConfiguredStillBoundedUnderFaults) {
  // io_timeout_seconds = 0 normally means "block without bound"; with a
  // fault plan enabled the coordinator must impose its safety deadline so
  // an injected truncation cannot hang the run.
  apps::BitonicResult result;
  mig::RunOptions options;
  options.fault_plan.kind = net::FaultKind::Truncate;
  options.fault_plan.offset = 32;
  const mig::MigrationReport report = run_bitonic(options, result);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(report.outcome, mig::MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 2);
}

// --- the one per-IO deadline ----------------------------------------------
// io_deadline(options) is the only bound every blocking send/recv of a
// run gets: the configured io_timeout_seconds, 0 = unbounded, and a 5 s
// safety default once a fault plan is armed without one.

TEST(IoDeadline, ASetTimeoutIsUsedAsIs) {
  mig::RunOptions options;
  options.io_timeout_seconds = 1.5;
  EXPECT_EQ(mig::io_deadline(options), std::chrono::milliseconds(1500));
  options.fault_plan.kind = net::FaultKind::Stall;  // a set value wins over the default
  EXPECT_EQ(mig::io_deadline(options), std::chrono::milliseconds(1500));
}

TEST(IoDeadline, ZeroMeansUnbounded) {
  mig::RunOptions options;
  options.io_timeout_seconds = 0;
  EXPECT_EQ(mig::io_deadline(options), std::chrono::milliseconds(0));
}

TEST(IoDeadline, AnArmedFaultPlanDefaultsToFiveSeconds) {
  mig::RunOptions options;
  options.fault_plan.kind = net::FaultKind::Truncate;
  EXPECT_EQ(mig::io_deadline(options), std::chrono::milliseconds(5000));
  mig::RunOptions dest_faults;
  dest_faults.dest_fault_plan.kind = net::FaultKind::Truncate;
  EXPECT_EQ(mig::io_deadline(dest_faults), std::chrono::milliseconds(5000));
}

TEST(FaultInjection, BackToBackFileMigrationsLeaveNoSpoolBehind) {
  const std::string spool = "/tmp/hpm_fault_spool_reuse.bin";
  for (int round = 0; round < 2; ++round) {
    apps::BitonicResult result;
    mig::RunOptions options;
    options.transport = mig::Transport::File;
    options.spool_path = spool;
    const mig::MigrationReport report = run_bitonic(options, result);
    EXPECT_TRUE(result.ok()) << "round " << round;
    EXPECT_EQ(report.outcome, mig::MigrationOutcome::Migrated) << "round " << round;
    EXPECT_FALSE(file_exists(spool)) << "spool leaked after round " << round;
    EXPECT_FALSE(file_exists(spool + ".done")) << "marker leaked after round " << round;
  }
}

TEST(FaultInjection, AbortedFileMigrationCleansItsSpool) {
  const std::string spool = "/tmp/hpm_fault_spool_aborted.bin";
  apps::BitonicResult result;
  mig::RunOptions options;
  options.transport = mig::Transport::File;
  options.spool_path = spool;
  options.io_timeout_seconds = 0.25;
  options.max_retries = 1;
  options.fault_plan.kind = net::FaultKind::Truncate;
  options.fault_plan.offset = 16;
  options.fault_plan.max_firings = 1000;
  const mig::MigrationReport report = run_bitonic(options, result);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(report.outcome, mig::MigrationOutcome::AbortedContinuedLocally);
  EXPECT_FALSE(file_exists(spool));
  EXPECT_FALSE(file_exists(spool + ".done"));
}

}  // namespace
}  // namespace hpm
