// How many times a migration hashes its stream (DESIGN.md §10): bytes fed
// to StreamDigest across one run_migration, over the run's stream bytes.
// Each side computes a chunk's digest once and derives the frame seal, the
// dedup address and the leaf root from it, so the pipelined and the
// dedup'd paths hash about 2.0 stream-lengths: once per side, plus the tail
// leaf each side hashes again and the small frames. The File spool is the
// documented exception at 4: its one State frame keeps the whole-frame
// seal, which both ends compute besides the collect tap and the restore's
// stream check. Labeled `integrity`.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "apps/linpack.hpp"
#include "common/digest.hpp"
#include "hpm/migrate.hpp"

namespace hpm::mig {
namespace {

namespace fs = std::filesystem;

/// linpack n = 400: a 1.28 MB matrix in one pointer-free block.
constexpr int kN = 400;

struct Measured {
  MigrationReport report;
  double passes = 0;  ///< bytes hashed during the run / stream bytes
};

Measured migrate_linpack(RunOptions options) {
  apps::LinpackResult result;
  options.register_types = apps::linpack_register_types;
  options.program = [&result](MigContext& ctx) { apps::linpack_program(ctx, kN, 7, &result); };
  options.migrate_at_poll = 2;
  const std::uint64_t before = StreamDigest::hashed_bytes();
  Measured m;
  m.report = run_migration(options);
  const std::uint64_t hashed = StreamDigest::hashed_bytes() - before;
  EXPECT_EQ(m.report.outcome, MigrationOutcome::Migrated);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(m.report.stream_bytes, std::uint64_t{1} << 20);
  m.passes = static_cast<double>(hashed) / static_cast<double>(m.report.stream_bytes);
  std::printf("hashed %llu bytes for a %llu-byte stream: %.3f passes\n",
              static_cast<unsigned long long>(hashed),
              static_cast<unsigned long long>(m.report.stream_bytes), m.passes);
  return m;
}

/// A 16 KiB chunk keeps each side's second hash of the tail leaf under
/// 1.3% of the stream.
RunOptions pipelined() {
  RunOptions options;
  options.transport = Transport::Memory;
  options.pipeline = true;
  options.chunk_bytes = 16 * 1024;
  return options;
}

TEST(HashPasses, APipelinedMemoryMigrationHashesItsStreamAboutTwice) {
  const Measured m = migrate_linpack(pipelined());
  EXPECT_GE(m.passes, 2.0);
  EXPECT_LE(m.passes, 2.1);
}

TEST(HashPasses, AnAllHitDedupRerunHashesItsStreamAboutTwice) {
  const std::string cache =
      (fs::temp_directory_path() / ("hpm_hash_passes_" + std::to_string(::getpid()))).string();
  fs::remove_all(cache);
  RunOptions options = pipelined();
  options.chunk_cache_dir = cache;
  const Measured cold = migrate_linpack(options);
  ASSERT_GT(cold.report.dedup_miss_chunks, 0u);
  const Measured rerun = migrate_linpack(options);
  EXPECT_EQ(rerun.report.dedup_miss_chunks, 0u);
  EXPECT_EQ(rerun.report.dedup_hit_chunks, rerun.report.dedup_manifest_chunks);
  EXPECT_EQ(rerun.report.stream_digest, cold.report.stream_digest);
  // The source's collect tap, then the store's verifying load of every hit.
  EXPECT_GE(rerun.passes, 2.0);
  EXPECT_LE(rerun.passes, 2.1);
  fs::remove_all(cache);
}

TEST(HashPasses, TheFileSpoolStaysAtFourPasses) {
  // The collect tap, the State frame's seal on each end, and the
  // restore's check of the spooled stream.
  RunOptions options;
  options.transport = Transport::File;
  options.chunk_bytes = 16 * 1024;
  options.spool_path =
      (fs::temp_directory_path() / ("hpm_hash_passes_" + std::to_string(::getpid()) + ".spool"))
          .string();
  const Measured m = migrate_linpack(options);
  EXPECT_GE(m.passes, 4.0);
  EXPECT_LE(m.passes, 4.1);
}

}  // namespace
}  // namespace hpm::mig
