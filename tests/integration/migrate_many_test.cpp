// Concurrent migrations: hpm::migrate_many drives N full transactional
// sessions, each on its own exclusive channels, and every session must be
// observationally identical to the same migration run alone through
// run_migration — same workload result, same logical stream — even while
// one of the sessions is killed mid-stream and resumes from its
// destination's chunk count as the others proceed.
//
// The fleet API is named only through the hpm/migrate.hpp facade, so a
// missing re-export fails this suite's build.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/bitonic.hpp"
#include "hpm/migrate.hpp"
#include "mig/journal.hpp"  // internal unit: list_journaled_txns

namespace hpm {
namespace {

/// Seeds chosen per session so the four workloads carry distinct state.
constexpr int kSeeds[] = {9, 11, 13, 17};
constexpr int kSessions = 4;

RunOptions bitonic_options(Transport transport, int seed,
                           apps::BitonicResult* result) {
  RunOptions options;
  options.transport = transport;
  // ~47 chunks of the ~6 KB bitonic stream: SeveringPort tickets are spent
  // on sends AND recvs, so the cut point drifts with ack timing — far more
  // chunks than tickets pins every scripted cut mid-stream, never into the
  // prepare phase.
  options.pipeline = true;
  options.chunk_bytes = 128;
  options.register_types = apps::bitonic_register_types;
  options.program = [result, seed](MigContext& ctx) {
    apps::bitonic_program(ctx, 6, static_cast<std::uint64_t>(seed), result);
  };
  options.migrate_at_poll = 50;
  return options;
}

class MigrateManyTransport : public ::testing::TestWithParam<Transport> {};

TEST_P(MigrateManyTransport, FourConcurrentSessionsMatchFourSerialRuns) {
  // --- baseline: the same four migrations, each run alone.
  std::vector<apps::BitonicResult> serial_results(kSessions);
  std::vector<MigrationReport> serial_reports;
  for (int i = 0; i < kSessions; ++i) {
    RunOptions options = bitonic_options(GetParam(), kSeeds[i], &serial_results[i]);
    serial_reports.push_back(run_migration(options));
    ASSERT_EQ(serial_reports[i].outcome, MigrationOutcome::Migrated);
    ASSERT_TRUE(serial_results[i].ok());
  }

  // --- four concurrent sessions; session 2 is severed mid-stream on its
  // first binding and must resume while the other three proceed
  // untouched.
  const std::string journal_dir =
      std::string("/tmp/hpm_migrate_many_") + net::transport_name(GetParam());
  std::filesystem::remove_all(journal_dir);  // stale journals from prior runs
  std::vector<apps::BitonicResult> results(kSessions);
  std::vector<SessionJob> jobs(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    jobs[i].options = bitonic_options(GetParam(), kSeeds[i], &results[i]);
    jobs[i].options.journal_dir = journal_dir;
  }
  jobs[1].sever_after_frames = 16;

  const std::vector<SessionOutcome> outcomes = migrate_many(jobs, GetParam());
  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kSessions));

  for (int i = 0; i < kSessions; ++i) {
    SCOPED_TRACE("session " + std::to_string(outcomes[i].session_id));
    const MigrationReport& r = outcomes[i].report;
    EXPECT_EQ(outcomes[i].session_id, static_cast<std::uint32_t>(i + 1));
    EXPECT_EQ(r.outcome, MigrationOutcome::Migrated);
    ASSERT_TRUE(results[i].ok());
    // Bit-identical to the run alone: same final workload result from the
    // same logical stream.
    EXPECT_EQ(results[i].sum_after, serial_results[i].sum_after);
    EXPECT_EQ(r.stream_bytes, serial_reports[i].stream_bytes);
    // Per-session telemetry is labeled with the session id, so concurrent
    // sessions never share a counter.
    const std::string prefix =
        "mig.session." + std::to_string(outcomes[i].session_id) + ".";
    EXPECT_GT(r.metrics.counter(prefix + "source.frames"), 0u);
    EXPECT_GT(r.metrics.counter(prefix + "destination.frames"), 0u);
    // Each transaction journals under its own txn-keyed pair in the
    // SHARED journal directory, and recovers independently.
    ASSERT_NE(r.txn_id, 0u);
    const RecoveryVerdict verdict = recover(journal_dir, r.txn_id);
    EXPECT_EQ(verdict.owner, TxnOwner::Destination);
    EXPECT_TRUE(verdict.completed);
  }

  // The severed session really did die and resume mid-stream...
  EXPECT_GE(outcomes[1].report.resumed_from_seq, 0);
  EXPECT_GE(outcomes[1].report.attempts, 2);
  // ...while the other sessions never had to.
  EXPECT_EQ(outcomes[0].report.resumed_from_seq, -1);
  EXPECT_EQ(outcomes[2].report.resumed_from_seq, -1);
  EXPECT_EQ(outcomes[3].report.resumed_from_seq, -1);

  // All four transactions are visible in the shared journal directory.
  EXPECT_EQ(mig::list_journaled_txns(journal_dir).size(),
            static_cast<std::size_t>(kSessions));
}

INSTANTIATE_TEST_SUITE_P(MemAndSocket, MigrateManyTransport,
                         ::testing::Values(Transport::Memory, Transport::Socket),
                         [](const ::testing::TestParamInfo<Transport>& p) {
                           return std::string(net::transport_name(p.param));
                         });

TEST(MigrateMany, SingleSessionMigrates) {
  // Degenerate fleet: one session, one driver thread.
  apps::BitonicResult result;
  std::vector<SessionJob> jobs(1);
  jobs[0].options = bitonic_options(Transport::Memory, 9, &result);
  const std::vector<SessionOutcome> outcomes = migrate_many(jobs, Transport::Memory);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].report.outcome, MigrationOutcome::Migrated);
  EXPECT_TRUE(result.ok());
}

TEST(MigrateMany, SingleSessionResumesAfterSeverance) {
  // One session, severed mid-stream: the resume on a fresh binding must
  // work before concurrency is added on top of it.
  apps::BitonicResult result;
  std::vector<SessionJob> jobs(1);
  jobs[0].options = bitonic_options(Transport::Memory, 9, &result);
  jobs[0].sever_after_frames = 16;
  const std::vector<SessionOutcome> outcomes = migrate_many(jobs, Transport::Memory);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].report.outcome, MigrationOutcome::Migrated);
  EXPECT_GE(outcomes[0].report.resumed_from_seq, 0);
  EXPECT_TRUE(result.ok());
}

TEST(MigrateMany, VetoedSessionIsRetriedAtAFreshIncarnation) {
  // A single-byte corruption that passes the frame seal (CorruptMasked) is
  // vetoed by the destination's end-to-end digest check. A migrate_many
  // session honours its job's fault_plan as run_migration does and retries
  // like it: the retained stream is replayed to a fresh incarnation that
  // votes on it. The sibling sessions never see the fault.
  apps::BitonicResult probe_result;
  const RunOptions probe = bitonic_options(Transport::Memory, 9, &probe_result);
  const MigrationReport p = run_migration(probe);
  ASSERT_EQ(p.outcome, MigrationOutcome::Migrated);
  const std::uint64_t cb = probe.chunk_bytes;
  const std::uint64_t chunks = (p.stream_bytes + cb - 1) / cb;
  const std::uint64_t last_len = p.stream_bytes - (chunks - 1) * cb;
  ASSERT_GT(last_len, 4u);
  // Frames: type(1)/len(4) header + seal(4). StateBegin carries 16
  // payload bytes, a StateChunk a 4-byte seq + body; aim at the
  // second-to-last stream byte, which only the digest checks.
  constexpr std::uint64_t kFrame = 9;
  net::FaultPlan plan;
  plan.kind = net::FaultKind::CorruptMasked;
  plan.offset = (kFrame + 16) + (chunks - 1) * (kFrame + 4 + cb) + 5 + 4 + (last_len - 2);

  constexpr int kVictim = 1;
  std::vector<apps::BitonicResult> results(3);
  std::vector<SessionJob> jobs(3);
  for (int i = 0; i < 3; ++i) {
    jobs[i].options = bitonic_options(Transport::Memory, 9, &results[i]);
  }
  jobs[kVictim].options.io_timeout_seconds = 2.0;
  jobs[kVictim].options.fault_plan = plan;

  const std::vector<SessionOutcome> outcomes = migrate_many(jobs, Transport::Memory);
  ASSERT_EQ(outcomes.size(), 3u);
  const MigrationReport& report = outcomes[kVictim].report;
  const apps::BitonicResult& result = results[kVictim];
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.dest_incarnation, 2u);
  ASSERT_EQ(report.failure_causes.size(), 1u);
  EXPECT_NE(report.failure_causes[0].find("digest"), std::string::npos)
      << report.failure_causes[0];
  EXPECT_EQ(report.metrics.counter("net.frames.seal_failures"), 0u);
  EXPECT_EQ(report.stream_digest, p.stream_digest);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, probe_result.sum_after);

  // The siblings ran one attempt each, to the same answer.
  for (int i = 0; i < 3; ++i) {
    if (i == kVictim) continue;
    SCOPED_TRACE("session " + std::to_string(i + 1));
    EXPECT_EQ(outcomes[i].report.outcome, MigrationOutcome::Migrated);
    EXPECT_EQ(outcomes[i].report.attempts, 1);
    EXPECT_TRUE(outcomes[i].report.failure_causes.empty());
    EXPECT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].sum_after, probe_result.sum_after);
  }
}

TEST(MigrateMany, FileTransportIsRejected) {
  EXPECT_THROW(migrate_many({SessionJob{}}, Transport::File), MigrationError);
}

TEST(MigrateMany, EmptyJobListIsANoOp) {
  EXPECT_TRUE(migrate_many({}, Transport::Memory).empty());
}

}  // namespace
}  // namespace hpm
