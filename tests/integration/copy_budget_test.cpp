// How many times a migration copies its stream: bytes moved by memcpy and
// memmove calls of at least 4 KiB across one run_migration (the
// copy_counter interposer, preloaded by ctest), over the run's stream
// bytes. Both sides run in this process. Encode (blocks into the stream)
// and decode (stream into blocks) copy it once each, and an in-memory
// pipe once in and once out: 4.0 stream-lengths is the floor of a
// pipelined Memory migration, and an all-hit dedup rerun, whose chunks
// the store reads straight into their segments, needs only encode and
// decode. Labeled `copies`, which no sanitizer preset runs: ASan and TSan
// intercept memcpy themselves.
#include <gtest/gtest.h>

#include <dlfcn.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "apps/linpack.hpp"
#include "hpm/migrate.hpp"

namespace hpm::mig {
namespace {

namespace fs = std::filesystem;

/// linpack n = 400: a 1.28 MB matrix in one pointer-free block.
constexpr int kN = 400;

using CountFn = unsigned long long (*)();

CountFn copy_counter() {
  return reinterpret_cast<CountFn>(dlsym(RTLD_DEFAULT, "hpm_copy_counter_bytes"));
}

struct Measured {
  MigrationReport report;
  double copies = 0;  ///< bytes copied during the run / stream bytes
};

Measured migrate_linpack(RunOptions options) {
  const CountFn copied = copy_counter();
  EXPECT_NE(copied, nullptr) << "run with LD_PRELOAD naming the copy_counter library";
  apps::LinpackResult result;
  options.register_types = apps::linpack_register_types;
  options.program = [&result](MigContext& ctx) { apps::linpack_program(ctx, kN, 7, &result); };
  options.migrate_at_poll = 2;
  Measured m;
  if (copied == nullptr) return m;
  const unsigned long long before = copied();
  m.report = run_migration(options);
  const unsigned long long bytes = copied() - before;
  EXPECT_EQ(m.report.outcome, MigrationOutcome::Migrated);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(m.report.stream_bytes, std::uint64_t{1} << 20);
  m.copies = static_cast<double>(bytes) / static_cast<double>(m.report.stream_bytes);
  std::printf("copied %llu bytes for a %llu-byte stream: %.3f stream-lengths\n", bytes,
              static_cast<unsigned long long>(m.report.stream_bytes), m.copies);
  return m;
}

RunOptions pipelined() {
  RunOptions options;
  options.transport = Transport::Memory;
  options.pipeline = true;
  options.chunk_bytes = 16 * 1024;
  return options;
}

TEST(CopyBudget, APipelinedMemoryMigrationCopiesItsStreamFourTimes) {
  const Measured m = migrate_linpack(pipelined());
  EXPECT_GE(m.copies, 3.9);
  EXPECT_LE(m.copies, 4.1);
}

TEST(CopyBudget, AnAllHitDedupRerunCopiesItsStreamAtMostThreeTimes) {
  const std::string cache =
      (fs::temp_directory_path() / ("hpm_copy_budget_" + std::to_string(::getpid()))).string();
  fs::remove_all(cache);
  RunOptions options = pipelined();
  options.chunk_cache_dir = cache;
  const Measured cold = migrate_linpack(options);
  ASSERT_GT(cold.report.dedup_miss_chunks, 0u);
  const Measured rerun = migrate_linpack(options);
  EXPECT_EQ(rerun.report.dedup_miss_chunks, 0u);
  EXPECT_EQ(rerun.report.dedup_hit_chunks, rerun.report.dedup_manifest_chunks);
  EXPECT_LE(rerun.copies, 3.1);
  fs::remove_all(cache);
}

}  // namespace
}  // namespace hpm::mig
