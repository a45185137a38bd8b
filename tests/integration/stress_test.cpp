// Medium-scale end-to-end soak: larger states, real transports, chained
// facilities — the flows a downstream user would actually run, at sizes
// big enough to shake out scaling bugs but bounded for CI.
#include <gtest/gtest.h>

#include "apps/bitonic.hpp"
#include "apps/linpack.hpp"
#include "ckpt/checkpoint.hpp"
#include "hpm/migrate.hpp"
#include "msrm/dump.hpp"

namespace hpm {
namespace {

TEST(Stress, LinpackOverSocketAtMegabyteScale) {
  apps::LinpackResult result;
  mig::RunOptions options;
  options.register_types = apps::linpack_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::linpack_program(ctx, 400, 11, &result);  // ~1.3 MB of live state
  };
  options.migrate_at_poll = 200;
  options.transport = mig::Transport::Socket;
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_TRUE(report.migrated);
  EXPECT_GT(report.stream_bytes, 1'000'000u);
  EXPECT_TRUE(result.ok()) << result.normalized;
}

TEST(Stress, BitonicOverFileWithTensOfThousandsOfBlocks) {
  apps::BitonicResult result;
  mig::RunOptions options;
  options.register_types = apps::bitonic_register_types;
  options.program = [&result](mig::MigContext& ctx) {
    apps::bitonic_program(ctx, 10, 77, &result);  // 2047 nodes, deep recursion
  };
  options.migrate_at_poll = 2500;
  options.transport = mig::Transport::File;
  options.spool_path = "/tmp/hpm_stress_spool.bin";
  const mig::MigrationReport report = mig::run_migration(options);
  EXPECT_TRUE(report.migrated);
  EXPECT_TRUE(result.ok());
  EXPECT_GT(report.metrics.counter("msrm.collect.blocks_saved"), 2000u);
}

TEST(Stress, DumpValidatesALargeStreamUnderTruncationCap) {
  ti::TypeTable types;
  apps::bitonic_register_types(types);
  mig::MigContext ctx(types);
  ctx.set_migrate_at_poll(1);
  apps::BitonicResult result;
  EXPECT_THROW(apps::bitonic_program(ctx, 12, 5, &result), mig::MigrationExit);
  const std::uint64_t wire_blocks = ctx.metrics().collect.counter("msrm.collect.blocks_saved");
  ASSERT_GT(wire_blocks, 8000u);
  msrm::DumpOptions options;
  options.max_blocks = 50;  // keep the text small...
  const std::string text = msrm::dump_stream(ctx.stream(), options);
  // ...but the whole 8k-block stream must still decode and verify.
  EXPECT_NE(text.find("total blocks on wire: " + std::to_string(wire_blocks)),
            std::string::npos);
  EXPECT_LT(text.size(), 100'000u);
}

TEST(Stress, CheckpointRestartOfAMigratedWorkload) {
  // Chain facilities: checkpoint a bitonic run mid-sort, restart it, and
  // verify the restarted process still sorts correctly.
  const std::string path = "/tmp/hpm_stress_ckpt.ckpt";
  std::remove(path.c_str());
  apps::BitonicResult during;
  ckpt::checkpoint_run(
      apps::bitonic_register_types,
      [&during](mig::MigContext& ctx) { apps::bitonic_program(ctx, 8, 21, &during); },
      path, /*at_poll=*/700);
  EXPECT_TRUE(during.ok());
  apps::BitonicResult restarted;
  ckpt::restart_run(
      apps::bitonic_register_types,
      [&restarted](mig::MigContext& ctx) { apps::bitonic_program(ctx, 8, 21, &restarted); },
      path);
  EXPECT_TRUE(restarted.ok());
}

}  // namespace
}  // namespace hpm
