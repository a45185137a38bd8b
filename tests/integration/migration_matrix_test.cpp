// Parameterized end-to-end matrix: every workload correct when migrated
// at MANY different poll points (early, mid, late), which exercises
// different frame stacks, live-data shapes, and resume labels each time.
#include <gtest/gtest.h>

#include "apps/bitonic.hpp"
#include "apps/linpack.hpp"
#include "apps/test_pointer.hpp"
#include "hpm/migrate.hpp"

namespace hpm {
namespace {

class LinpackSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinpackSweep, SolvesCorrectlyWhenMigratedAtPoll) {
  apps::LinpackResult result;
  mig::RunOptions options;
  options.register_types = apps::linpack_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::linpack_program(ctx, 60, 3, &result);
  };
  options.migrate_at_poll = GetParam();
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_TRUE(report.migrated);
  EXPECT_TRUE(result.ok()) << "normalized=" << result.normalized << " at poll " << GetParam();
  EXPECT_EQ(report.metrics.counter("msrm.collect.blocks_saved"),
            report.metrics.counter("msrm.restore.blocks_created") +
                report.metrics.counter("msrm.restore.blocks_bound"))
      << "every transferred block must be materialized exactly once";
}

// n=60: dgefa polls 59 times (labels 1), dgesl polls 59+60 more. Sweep
// covers dgefa early/mid/late, the dgefa->dgesl boundary, and dgesl's
// back-substitution loop.
INSTANTIATE_TEST_SUITE_P(PollPoints, LinpackSweep,
                         ::testing::Values(1, 2, 15, 30, 58, 59, 60, 90, 118, 150, 177));

class BitonicSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitonicSweep, SortsCorrectlyWhenMigratedAtPoll) {
  apps::BitonicResult result;
  mig::RunOptions options;
  options.register_types = apps::bitonic_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::bitonic_program(ctx, 5, 77, &result);
  };
  options.migrate_at_poll = GetParam();
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_TRUE(report.migrated);
  EXPECT_TRUE(result.ok()) << "at poll " << GetParam();
}

// 32 leaves -> 32*15/2 = 240 leaf compare polls; hit many recursion
// shapes including the first and the last.
INSTANTIATE_TEST_SUITE_P(PollPoints, BitonicSweep,
                         ::testing::Values(1, 2, 3, 7, 16, 31, 32, 33, 64, 100, 151, 200, 239,
                                           240));

class TransportSweep : public ::testing::TestWithParam<mig::Transport> {};

TEST_P(TransportSweep, BitonicMigratesOverEveryTransport) {
  apps::BitonicResult result;
  mig::RunOptions options;
  options.register_types = apps::bitonic_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::bitonic_program(ctx, 4, 5, &result);
  };
  options.migrate_at_poll = 20;
  options.transport = GetParam();
  options.spool_path = "/tmp/hpm_matrix_spool.bin";
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_TRUE(report.migrated);
  EXPECT_TRUE(result.ok());
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportSweep,
                         ::testing::Values(mig::Transport::Memory, mig::Transport::Socket,
                                           mig::Transport::File));

TEST(MigrationMatrix, ThrottledLinkReportsWallClockTx) {
  apps::TestPointerResult result;
  mig::RunOptions options;
  options.register_types = apps::test_pointer_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::test_pointer_program(ctx, 1, &result);
  };
  options.migrate_at_poll = 1;
  options.throttle = true;
  options.link = net::SimulatedLink{50e6, 1e-3, 1500, 58};  // slow-ish, visible latency
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(report.tx_seconds, 1e-3);  // at least the modeled latency
}

TEST(MigrationMatrix, LateTriggerAfterLastPollMeansNoMigration) {
  apps::BitonicResult result;
  mig::RunOptions options;
  options.register_types = apps::bitonic_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::bitonic_program(ctx, 3, 5, &result);
  };
  options.migrate_at_poll = 1000000;  // beyond the program's poll count
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_FALSE(report.migrated);
  EXPECT_TRUE(result.ok());
  EXPECT_GT(report.source_polls, 0u);
}

}  // namespace
}  // namespace hpm
