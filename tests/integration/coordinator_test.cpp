// Coordinator protocol behavior through the public header: error
// propagation, async requests, option validation, report consistency, and
// the recovery verdict of a journaled run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <stop_token>
#include <thread>

#include "apps/test_pointer.hpp"
#include "hpm/migrate.hpp"

namespace hpm {
namespace {

void simple_program(MigContext& ctx, int n, std::atomic<int>* completions) {
  HPM_FUNCTION(ctx);
  int i;
  HPM_LOCAL(ctx, i);
  HPM_LOCAL(ctx, n);
  HPM_BODY(ctx);
  for (i = 0; i < n; ++i) {
    HPM_POLL(ctx, 1);
  }
  completions->fetch_add(1);
  HPM_BODY_END(ctx);
}

/// The paper's scheduler: a thread that asks the source to migrate
/// `delay` into the run. Started on the source only — the destination
/// re-runs the program to restore — and joined (stop requested first) when
/// the returned handle leaves the program's scope, so a program that
/// finishes early cancels the request.
std::jthread request_after(MigContext& ctx, std::chrono::milliseconds delay) {
  if (ctx.restoring()) return {};
  return std::jthread([&ctx, delay](std::stop_token stop) {
    std::mutex mu;
    std::condition_variable_any wake;
    std::unique_lock lock(mu);
    wake.wait_for(lock, stop, delay, [] { return false; });
    if (!stop.stop_requested()) ctx.request_migration();
  });
}

TEST(Coordinator, MissingCallbacksAreRejected) {
  RunOptions options;
  EXPECT_THROW(run_migration(options), MigrationError);
  options.register_types = [](ti::TypeTable&) {};
  EXPECT_THROW(run_migration(options), MigrationError);
}

TEST(Coordinator, NoMigrationShutdownIsClean) {
  std::atomic<int> completions{0};
  RunOptions options;
  options.register_types = [](ti::TypeTable&) {};
  options.program = [&completions](MigContext& ctx) {
    simple_program(ctx, 10, &completions);
  };
  const MigrationReport report = run_migration(options);
  EXPECT_FALSE(report.migrated);
  EXPECT_EQ(report.outcome, MigrationOutcome::CompletedLocally);
  EXPECT_EQ(report.attempts, 0);  // no transfer was ever started
  EXPECT_EQ(completions.load(), 1);  // only the source ran
  EXPECT_EQ(report.source_polls, 10u);
  EXPECT_EQ(report.stream_bytes, 0u);
}

TEST(Coordinator, MigrationRunsDestinationExactlyOnce) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("hpm_coord_journal_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::atomic<int> completions{0};
  RunOptions options;
  options.register_types = [](ti::TypeTable&) {};
  options.program = [&completions](MigContext& ctx) {
    simple_program(ctx, 10, &completions);
  };
  options.migrate_at_poll = 5;
  options.journal_dir = dir.string();
  const MigrationReport report = run_migration(options);
  EXPECT_TRUE(report.migrated);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 1);  // a healthy channel needs exactly one
  EXPECT_TRUE(report.failure_causes.empty());
  EXPECT_EQ(completions.load(), 1);  // source unwound; destination finished
  EXPECT_GT(report.stream_bytes, 0u);
  EXPECT_GE(report.tx_seconds, 0.0);

  // The journals name that run, and the destination as its owner.
  const RecoveryVerdict v = hpm::recover(dir.string());
  EXPECT_EQ(v.txn_id, report.txn_id);
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
  EXPECT_STREQ(txn_owner_name(v.owner), "destination");
  EXPECT_TRUE(v.completed) << v.reason;
  std::filesystem::remove_all(dir);
}

TEST(Coordinator, DestinationFailureSurfacesToTheCaller) {
  // Source and destination run DIFFERENT programs (version skew): every
  // transfer attempt fails the same way, and the local continuation runs
  // the same wrong binary — so the failure must still propagate out of
  // run_migration instead of hanging or being swallowed.
  std::atomic<int> completions{0};
  std::atomic<bool> first{true};
  RunOptions options;
  options.register_types = [](ti::TypeTable&) {};
  options.program = [&completions, &first](MigContext& ctx) {
    const bool is_source = first.exchange(false);
    if (is_source) {
      simple_program(ctx, 10, &completions);
    } else {
      // "Wrong binary" on the destination: different frame shape.
      HPM_FUNCTION(ctx);
      double z;
      HPM_LOCAL(ctx, z);
      HPM_BODY(ctx);
      z = 0;
      HPM_POLL(ctx, 1);
      HPM_BODY_END(ctx);
    }
  };
  options.migrate_at_poll = 3;
  EXPECT_THROW(run_migration(options), Error);
}

TEST(Coordinator, SourceProgramExceptionPropagates) {
  RunOptions options;
  options.register_types = [](ti::TypeTable&) {};
  options.program = [](MigContext&) { throw std::runtime_error("app bug"); };
  EXPECT_THROW(run_migration(options), std::runtime_error);
}

TEST(Coordinator, AsyncRequestAfterCompletionIsHarmless) {
  std::atomic<int> completions{0};
  RunOptions options;
  options.register_types = [](ti::TypeTable&) {};
  options.program = [&completions](MigContext& ctx) {
    const std::jthread scheduler = request_after(ctx, std::chrono::seconds(5));
    simple_program(ctx, 3, &completions);  // finishes long before the request
  };
  const MigrationReport report = run_migration(options);
  EXPECT_FALSE(report.migrated);
  EXPECT_EQ(completions.load(), 1);
}

TEST(Coordinator, AsyncRequestMidRunMigrates) {
  std::atomic<int> completions{0};
  RunOptions options;
  options.register_types = [](ti::TypeTable&) {};
  options.program = [&completions](MigContext& ctx) {
    const std::jthread scheduler = request_after(ctx, std::chrono::milliseconds(1));
    // Enough polls that the 1 ms request lands mid-run.
    simple_program(ctx, 50'000'000, &completions);
  };
  const MigrationReport report = run_migration(options);
  EXPECT_TRUE(report.migrated);
  EXPECT_EQ(completions.load(), 1);
}

TEST(Coordinator, ReportBlockCountsBalance) {
  apps::TestPointerResult result;
  RunOptions options;
  options.register_types = apps::test_pointer_register_types;
  options.program = [&result](MigContext& ctx) {
    apps::test_pointer_program(ctx, 5, &result);
  };
  options.migrate_at_poll = 1;
  const MigrationReport report = run_migration(options);
  EXPECT_TRUE(result.ok());
  const obs::MetricsSnapshot& m = report.metrics;
  EXPECT_EQ(m.counter("msrm.collect.blocks_saved"),
            m.counter("msrm.restore.blocks_created") + m.counter("msrm.restore.blocks_bound"));
  EXPECT_EQ(m.counter("msrm.collect.refs_saved"), m.counter("msrm.restore.refs_resolved"));
  EXPECT_EQ(m.counter("msrm.collect.nulls_saved"), m.counter("msrm.restore.nulls_restored"));
  EXPECT_EQ(m.counter("msrm.collect.prim_leaves"), m.counter("msrm.restore.prim_leaves"));
  EXPECT_EQ(m.counter("msrm.collect.ptr_leaves"), m.counter("msrm.restore.ptr_leaves"));
  EXPECT_EQ(report.source_arch, "native");
}

}  // namespace
}  // namespace hpm
