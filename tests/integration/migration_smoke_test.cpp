// End-to-end smoke tests: the three paper workloads migrating across the
// coordinator on every transport. These are the "does the whole machine
// turn over" tests; exhaustive per-module coverage lives in the unit
// suites.
#include <gtest/gtest.h>

#include "apps/bitonic.hpp"
#include "apps/linpack.hpp"
#include "apps/test_pointer.hpp"
#include "hpm/migrate.hpp"

namespace hpm {
namespace {

TEST(MigrationSmoke, TestPointerRunsToCompletionWithoutMigration) {
  apps::TestPointerResult result;
  mig::RunOptions options;
  options.register_types = apps::test_pointer_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::test_pointer_program(ctx, 7, &result);
  };
  options.migrate_at_poll = 0;
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_FALSE(report.migrated);
  EXPECT_TRUE(result.ok()) << "tree=" << result.tree_ok << " scalar=" << result.scalar_ptr_ok
                           << " arr=" << result.array_ptr_ok << " parr=" << result.ptr_array_ok
                           << " dag=" << result.dag_ok << " cycle=" << result.cycle_ok
                           << " interior=" << result.interior_ok;
}

TEST(MigrationSmoke, TestPointerMigratesAtThePollPoint) {
  apps::TestPointerResult result;
  mig::RunOptions options;
  options.register_types = apps::test_pointer_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::test_pointer_program(ctx, 7, &result);
  };
  options.migrate_at_poll = 1;
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_TRUE(report.migrated);
  EXPECT_GT(report.stream_bytes, 0u);
  EXPECT_TRUE(result.ok()) << "tree=" << result.tree_ok << " scalar=" << result.scalar_ptr_ok
                           << " arr=" << result.array_ptr_ok << " parr=" << result.ptr_array_ok
                           << " dag=" << result.dag_ok << " cycle=" << result.cycle_ok
                           << " interior=" << result.interior_ok;
}

TEST(MigrationSmoke, LinpackMigratesMidFactorization) {
  apps::LinpackResult result;
  mig::RunOptions options;
  options.register_types = apps::linpack_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::linpack_program(ctx, 80, 1, &result);
  };
  options.migrate_at_poll = 40;  // inside dgefa's column loop
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_TRUE(report.migrated);
  EXPECT_TRUE(result.ok()) << "n=" << result.n << " normalized=" << result.normalized;
}

TEST(MigrationSmoke, BitonicMigratesDeepInRecursion) {
  apps::BitonicResult result;
  mig::RunOptions options;
  options.register_types = apps::bitonic_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::bitonic_program(ctx, 6, 99, &result);
  };
  options.migrate_at_poll = 57;  // somewhere inside the sorting network
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_TRUE(report.migrated);
  EXPECT_TRUE(result.ok()) << "sorted=" << result.sorted << " before=" << result.sum_before
                           << " after=" << result.sum_after;
}

TEST(MigrationSmoke, SocketTransportCarriesAMigration) {
  apps::TestPointerResult result;
  mig::RunOptions options;
  options.register_types = apps::test_pointer_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::test_pointer_program(ctx, 3, &result);
  };
  options.migrate_at_poll = 1;
  options.transport = mig::Transport::Socket;
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_TRUE(report.migrated);
  EXPECT_TRUE(result.ok());
}

TEST(MigrationSmoke, FileTransportCarriesAMigration) {
  apps::TestPointerResult result;
  mig::RunOptions options;
  options.register_types = apps::test_pointer_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::test_pointer_program(ctx, 3, &result);
  };
  options.migrate_at_poll = 1;
  options.transport = mig::Transport::File;
  options.spool_path = "/tmp/hpm_smoke_spool.bin";
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_TRUE(report.migrated);
  EXPECT_TRUE(result.ok());
}

}  // namespace
}  // namespace hpm
