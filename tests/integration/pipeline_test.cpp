// Overlap on vs off, end to end: the overlapped transaction must be
// observationally identical to the collect-first one — same workload
// result, same logical stream on the wire — while actually chunking
// (telemetry proves it) and while keeping the same failure semantics:
// clean shutdown when no migration triggers, workload exceptions
// propagate, File transport quietly ignores the flag and spools.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "apps/bitonic.hpp"
#include "hpm/migrate.hpp"

namespace hpm::mig {
namespace {

/// Bitonic sort migrated mid-recursion; result.ok() checks the final
/// sorted output, i.e. "identical to a no-migration run".
MigrationReport run_bitonic(RunOptions& options, apps::BitonicResult& result) {
  options.register_types = apps::bitonic_register_types;
  options.program = [&result](MigContext& ctx) {
    apps::bitonic_program(ctx, 6, 9, &result);
  };
  options.migrate_at_poll = 50;
  return run_migration(options);
}

class PipelineTransport : public ::testing::TestWithParam<Transport> {};

TEST_P(PipelineTransport, PipelinedRunMatchesTheSerialRun) {
  apps::BitonicResult serial_result;
  RunOptions serial;
  serial.transport = GetParam();
  // The chunk size is the stream's leaf size, which the header and the
  // root name (grammar v4): both runs use the same one.
  serial.chunk_bytes = 2048;
  const MigrationReport s = run_bitonic(serial, serial_result);
  ASSERT_EQ(s.outcome, MigrationOutcome::Migrated);
  ASSERT_TRUE(serial_result.ok());
  EXPECT_EQ(s.overlap_ratio, 0.0) << "overlap off: collection ends before Tx begins";

  apps::BitonicResult piped_result;
  RunOptions piped;
  piped.transport = GetParam();
  piped.pipeline = true;
  piped.chunk_bytes = 2048;  // small enough that the state spans many chunks
  const MigrationReport p = run_bitonic(piped, piped_result);
  EXPECT_EQ(p.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(p.attempts, 1);
  EXPECT_TRUE(p.failure_causes.empty());
  ASSERT_TRUE(piped_result.ok());
  EXPECT_EQ(piped_result.sum_after, serial_result.sum_after);
  // Chunking must not change what goes over the wire, only how.
  EXPECT_EQ(p.stream_bytes, s.stream_bytes);
  EXPECT_NE(s.stream_digest, 0u) << "the overlap-off run reports its digest too";
  EXPECT_EQ(p.stream_digest, s.stream_digest);
  EXPECT_GT(p.metrics.counter("mig.pipeline.chunks"), 1u);
  EXPECT_GE(p.overlap_ratio, 0.0);
  EXPECT_LE(p.overlap_ratio, 1.0);
}

INSTANTIATE_TEST_SUITE_P(MemAndSocket, PipelineTransport,
                         ::testing::Values(Transport::Memory, Transport::Socket),
                         [](const ::testing::TestParamInfo<Transport>& param_info) {
                           return std::string(net::transport_name(param_info.param));
                         });

TEST(Pipeline, NoMigrationShutsDownCleanly) {
  // The destination comes up before the program runs, so a run that never
  // triggers must tear the rendezvous down without counting an attempt.
  std::atomic<int> completions{0};
  RunOptions options;
  options.pipeline = true;
  options.register_types = apps::bitonic_register_types;
  apps::BitonicResult result;
  options.program = [&result, &completions](MigContext& ctx) {
    apps::bitonic_program(ctx, 4, 9, &result);
    completions.fetch_add(1);
  };
  options.migrate_at_poll = 0;  // never migrate
  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::CompletedLocally);
  EXPECT_FALSE(report.migrated);
  EXPECT_EQ(report.attempts, 0);
  EXPECT_EQ(completions.load(), 1) << "only the source ran the program";
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(report.metrics.counter("mig.pipeline.chunks"), 0u);
}

TEST(Pipeline, WorkloadExceptionPropagatesLikeTheSerialPath) {
  // A bug in the user's program is not a transport fault: it must surface
  // to the caller, not be retried or degraded into "completed locally".
  RunOptions options;
  options.pipeline = true;
  options.register_types = [](ti::TypeTable&) {};
  options.program = [](MigContext&) { throw std::runtime_error("workload bug"); };
  EXPECT_THROW(run_migration(options), std::runtime_error);
}

TEST(Pipeline, FileTransportStaysSerial) {
  // File has no reverse path; pipeline=true must quietly take the
  // simplex spool and still migrate correctly.
  apps::BitonicResult result;
  RunOptions options;
  options.transport = Transport::File;
  options.spool_path = "/tmp/hpm_pipeline_spool.bin";
  options.pipeline = true;
  const MigrationReport report = run_bitonic(options, result);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(report.overlap_ratio, 0.0);
  EXPECT_EQ(report.metrics.counter("mig.pipeline.chunks"), 0u);
}

TEST(Pipeline, FileAndPipelinedMemoryReportTheSameDigest) {
  // One process state, two paths: the simplex File spool and the
  // pipelined Memory transaction must name the same canonical stream.
  apps::BitonicResult file_result;
  RunOptions file;
  file.transport = Transport::File;
  file.spool_path = "/tmp/hpm_pipeline_digest_spool.bin";
  file.chunk_bytes = 2048;  // the spooled stream's leaf size, as the chunked one's
  const MigrationReport f = run_bitonic(file, file_result);
  ASSERT_EQ(f.outcome, MigrationOutcome::Migrated);

  apps::BitonicResult mem_result;
  RunOptions mem;
  mem.transport = Transport::Memory;
  mem.pipeline = true;
  mem.chunk_bytes = 2048;
  const MigrationReport m = run_bitonic(mem, mem_result);
  ASSERT_EQ(m.outcome, MigrationOutcome::Migrated);

  EXPECT_NE(f.stream_digest, 0u);
  EXPECT_EQ(f.stream_digest, m.stream_digest);
  EXPECT_EQ(mem_result.sum_after, file_result.sum_after);
}

TEST(Pipeline, SingleChunkStateStillRoundTrips) {
  // chunk_bytes far above the stream size: the degenerate one-chunk
  // pipeline (StateBegin, one StateChunk, StateEnd) must behave.
  apps::BitonicResult result;
  RunOptions options;
  options.pipeline = true;
  options.chunk_bytes = 1u << 20;
  const MigrationReport report = run_bitonic(options, result);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(report.metrics.counter("mig.pipeline.chunks"), 1u);
}

}  // namespace
}  // namespace hpm::mig
