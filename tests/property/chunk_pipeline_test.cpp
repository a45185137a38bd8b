// Property test of the chunked pipeline: for random heap graphs, the
// destination state after a pipelined transfer is bit-identical to the
// overlap-off transfer's — at every chunk size from the pathological (1-byte
// payloads, so every frame boundary splits a token) to the degenerate
// (one chunk holds the whole stream). A corrupted chunk must be caught
// by the per-chunk frame seal and cost exactly one retryable attempt.
#include <gtest/gtest.h>

#include "apps/workload.hpp"
#include "hpm/migrate.hpp"

namespace hpm::mig {
namespace {

struct GraphOutcome {
  std::uint64_t fingerprint = 0;
  bool done = false;
};

/// Builds a seeded random graph on the migratable heap (pre-trigger, so
/// the construction needs no annotation), polls through a short window
/// where migration can fire, then fingerprints whatever memory the
/// process ended up on. After a migration the fingerprint is computed
/// from the DESTINATION's restored heap.
void graph_program(MigContext& ctx, std::uint64_t seed, std::uint32_t node_count,
                   GraphOutcome* out) {
  HPM_FUNCTION(ctx);
  apps::RandNode* root;
  int i;
  HPM_LOCAL(ctx, root);
  HPM_LOCAL(ctx, i);
  HPM_BODY(ctx);
  {
    apps::GraphShape shape;
    shape.nodes = node_count;
    shape.edge_density = 0.7;
    shape.share_bias = 0.6;
    root = apps::build_random_graph(ctx, seed, shape)[0];
  }
  for (i = 0; i < 6; ++i) {
    HPM_POLL(ctx, 1);
  }
  out->fingerprint = apps::graph_fingerprint(root);
  out->done = true;
  HPM_BODY_END(ctx);
}

/// Fingerprint of the same (seed, size) graph with no migration at all —
/// the ground truth both transfer modes must reproduce.
std::uint64_t unmigrated_fingerprint(std::uint64_t seed, std::uint32_t node_count) {
  ti::TypeTable types;
  apps::workload_register_types(types);
  MigContext ctx(types);
  GraphOutcome out;
  graph_program(ctx, seed, node_count, &out);
  EXPECT_TRUE(out.done);
  return out.fingerprint;
}

MigrationReport run_graph(RunOptions& options, std::uint64_t seed,
                          std::uint32_t node_count, GraphOutcome& out) {
  options.register_types = apps::workload_register_types;
  options.program = [&out, seed, node_count](MigContext& ctx) {
    graph_program(ctx, seed, node_count, &out);
  };
  options.migrate_at_poll = 3;
  return run_migration(options);
}

struct ChunkCase {
  std::uint32_t chunk_bytes;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<ChunkCase>& info) {
  return "chunk" + std::to_string(info.param.chunk_bytes) + "_seed" +
         std::to_string(info.param.seed);
}

class ChunkSizes : public ::testing::TestWithParam<ChunkCase> {};

TEST_P(ChunkSizes, PipelinedRestoreIsBitIdenticalToSerial) {
  const ChunkCase c = GetParam();
  const std::uint32_t nodes = 120;
  const std::uint64_t expected = unmigrated_fingerprint(c.seed, nodes);

  GraphOutcome serial_out;
  RunOptions serial;
  const MigrationReport s = run_graph(serial, c.seed, nodes, serial_out);
  ASSERT_EQ(s.outcome, MigrationOutcome::Migrated);
  ASSERT_TRUE(serial_out.done);
  // The fingerprint hashes every payload bit (tags, double bit patterns,
  // flavors) plus the sharing structure, so equality here is the
  // "bit-identical restored state" property.
  EXPECT_EQ(serial_out.fingerprint, expected);

  GraphOutcome piped_out;
  RunOptions piped;
  piped.pipeline = true;
  piped.chunk_bytes = c.chunk_bytes;
  const MigrationReport p = run_graph(piped, c.seed, nodes, piped_out);
  ASSERT_EQ(p.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(p.attempts, 1);
  ASSERT_TRUE(piped_out.done);
  EXPECT_EQ(piped_out.fingerprint, expected);
  EXPECT_EQ(p.stream_bytes, s.stream_bytes) << "chunking altered the stream itself";
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ChunkSizes,
    ::testing::Values(ChunkCase{1, 11}, ChunkCase{7, 11}, ChunkCase{4096, 11},
                      ChunkCase{1u << 20, 11}, ChunkCase{1, 29}, ChunkCase{7, 42},
                      ChunkCase{4096, 42}, ChunkCase{1u << 20, 29}),
    case_name);

TEST(ChunkPipeline, CorruptedChunkIsOneRetryableFailure) {
  // Flip bytes inside chunk ~4 of the pipelined stream. The frame seal on
  // that StateChunk must catch it and attempt 2 must land the retained
  // stream — since the transactional handoff, as a RESUME from the
  // destination's chunk watermark rather than a full replay —
  // deterministically two attempts, never a hang (the suite's ctest
  // TIMEOUT enforces that).
  GraphOutcome out;
  RunOptions options;
  options.pipeline = true;
  options.chunk_bytes = 512;
  options.io_timeout_seconds = 0.25;
  options.fault_plan.kind = net::FaultKind::Corrupt;
  options.fault_plan.offset = 2000;  // past StateBegin + a few chunk frames
  options.fault_plan.length = 4;
  options.fault_plan.max_firings = 1;  // attempt 1 corrupted, attempt 2 clean
  const MigrationReport report = run_graph(options, 11, 120, out);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 2) << "attempt 1 absorbs the corruption, attempt 2 lands";
  ASSERT_EQ(report.failure_causes.size(), 1u);
  EXPECT_NE(report.failure_causes[0].find("attempt 1"), std::string::npos)
      << report.failure_causes[0];
  ASSERT_TRUE(out.done);
  EXPECT_EQ(out.fingerprint, unmigrated_fingerprint(11, 120));
}

TEST(ChunkPipeline, PersistentCorruptionDegradesToLocalCompletion) {
  // The fault never clears: the pipelined attempt and every retry fail,
  // and the source must still finish the workload locally.
  GraphOutcome out;
  RunOptions options;
  options.pipeline = true;
  options.chunk_bytes = 512;
  options.io_timeout_seconds = 0.25;
  options.max_retries = 1;
  options.fault_plan.kind = net::FaultKind::Corrupt;
  options.fault_plan.offset = 2000;
  options.fault_plan.max_firings = 1000;  // outlives the retry budget
  const MigrationReport report = run_graph(options, 11, 120, out);
  EXPECT_EQ(report.outcome, MigrationOutcome::AbortedContinuedLocally);
  EXPECT_FALSE(report.migrated);
  EXPECT_EQ(report.attempts, 2);  // pipelined attempt + 1 retry
  EXPECT_EQ(report.failure_causes.size(), 2u);
  ASSERT_TRUE(out.done) << "local continuation must still produce the result";
  EXPECT_EQ(out.fingerprint, unmigrated_fingerprint(11, 120));
}

}  // namespace
}  // namespace hpm::mig
