// Crash points: cut one session's source port at every frame it carries.
//
// SessionJob::sever_after_frames = n lets exactly n port operations
// (sends and recvs alike) through on the session's first binding and
// fails every later one. The source performs them in one fixed order —
// recv Hello, send StateBegin, each StateChunk, StateEnd, Prepare, recv
// PrepareAck, send Commit, recv Ack — so each n names one protocol step.
// Sweeping n from 0 until the cut no longer disturbs the run visits every
// step of a small bitonic migration (the destination sends nothing
// mid-stream, so a resume restarts from the chunk count its ResumeHello
// announces).
// Every cut must leave the destination owning the workload with the same
// result and the same stream digest as an uncut run, and journal
// arbitration must name exactly one owner. Every cut before the Commit
// record must migrate confirmed; a cut after it can only end
// CommittedUnconfirmed. A cut from the first StateChunk through StateEnd
// (n = 2 .. chunks + 2) loses exactly the frames past the n - 2 chunks
// delivered, so one resume from chunk n - 2 finishes the handoff.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/bitonic.hpp"
#include "hpm/migrate.hpp"

namespace hpm {
namespace {

/// Far past the frame count of the session below (about 20): the sweep
/// must end well before it.
constexpr std::int64_t kMaxCut = 200;

RunOptions small_bitonic(Transport transport, apps::BitonicResult* result) {
  RunOptions options;
  options.transport = transport;
  options.pipeline = true;
  // ~6 KB of stream in ~6 chunks: few frames, every kind.
  options.chunk_bytes = 1024;
  options.register_types = apps::bitonic_register_types;
  options.program = [result](MigContext& ctx) {
    apps::bitonic_program(ctx, 6, 9, result);
  };
  options.migrate_at_poll = 50;
  return options;
}

class CrashPoints : public ::testing::TestWithParam<Transport> {};

TEST_P(CrashPoints, EveryCutMigratesToTheUncutResult) {
  apps::BitonicResult uncut_result;
  const MigrationReport uncut = run_migration(small_bitonic(GetParam(), &uncut_result));
  ASSERT_EQ(uncut.outcome, MigrationOutcome::Migrated);
  ASSERT_TRUE(uncut_result.ok());

  const std::string journal_dir = "/tmp/hpm_crashpoints_" +
                                  std::string(net::transport_name(GetParam())) + "_" +
                                  std::to_string(::getpid());
  std::filesystem::remove_all(journal_dir);

  const std::int64_t chunks = static_cast<std::int64_t>((uncut.stream_bytes + 1023) / 1024);
  std::int64_t cut = 0;
  int unconfirmed = 0;
  for (; cut < kMaxCut; ++cut) {
    SCOPED_TRACE("sever_after_frames " + std::to_string(cut));
    apps::BitonicResult result;
    std::vector<SessionJob> jobs(1);
    jobs[0].options = small_bitonic(GetParam(), &result);
    jobs[0].options.journal_dir = journal_dir;
    jobs[0].sever_after_frames = cut;
    const std::vector<SessionOutcome> outcomes = migrate_many(jobs, GetParam());
    ASSERT_EQ(outcomes.size(), 1u);
    const MigrationReport& r = outcomes[0].report;
    std::string causes;
    for (const std::string& c : r.failure_causes) causes += "\n  " + c;
    // A confirmed run the cut never disturbed has passed every frame of
    // the session: the sweep ends with it.
    const bool undisturbed = r.outcome == MigrationOutcome::Migrated &&
                             r.attempts == 1 && r.failure_causes.empty();

    if (r.outcome == MigrationOutcome::CommittedUnconfirmed) {
      // The cut fell after the source journaled Commit: on the Commit
      // frame itself or on the recv owed the destination's Ack. The
      // source cannot learn what it never received, so it reports the
      // handoff unconfirmed; the destination still owns and finished.
      ++unconfirmed;
      EXPECT_TRUE(r.migrated);
      EXPECT_EQ(r.attempts, 1) << causes;
    } else {
      // Every earlier cut is resumed or retried into a confirmed handoff.
      EXPECT_EQ(r.outcome, MigrationOutcome::Migrated)
          << outcome_name(r.outcome) << " after " << r.attempts << " attempts" << causes;
      EXPECT_TRUE(unconfirmed == 0 || undisturbed)
          << "a cut after the Commit record was retried";
    }
    if (cut >= 2 && cut <= chunks + 2) {
      // Cut on a StateChunk or on StateEnd: one resume past the chunks
      // that made it through.
      EXPECT_EQ(r.attempts, 2) << causes;
      EXPECT_EQ(r.resumed_from_seq, cut - 2) << causes;
    }
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.sum_after, uncut_result.sum_after);
    EXPECT_EQ(r.stream_digest, uncut.stream_digest);

    ASSERT_NE(r.txn_id, 0u);
    const RecoveryVerdict verdict = recover(journal_dir, r.txn_id);
    EXPECT_EQ(verdict.owner, TxnOwner::Destination) << verdict.reason;
    EXPECT_EQ(verdict.committed_destinations, 1u) << verdict.reason;
    EXPECT_EQ(verdict.incarnation, r.dest_incarnation) << verdict.reason;

    if (undisturbed) break;
  }
  EXPECT_LT(cut, kMaxCut) << "the cut still fired after " << kMaxCut << " frames";
  // The sweep walked the whole stream, not just the handshake.
  EXPECT_GT(cut, chunks + 2);
  // Exactly the Commit frame and the Ack owed for it lie past the Commit
  // record.
  EXPECT_EQ(unconfirmed, 2);
  std::filesystem::remove_all(journal_dir);
}

INSTANTIATE_TEST_SUITE_P(MemAndSocket, CrashPoints,
                         ::testing::Values(Transport::Memory, Transport::Socket),
                         [](const ::testing::TestParamInfo<Transport>& p) {
                           return std::string(net::transport_name(p.param));
                         });

}  // namespace
}  // namespace hpm
