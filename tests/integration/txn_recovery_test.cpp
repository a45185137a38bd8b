// The transactional handoff, attacked at every phase boundary.
//
// Five areas:
//  - TxnRecovery: the crash matrix. An injected process death (KilledError)
//    at each protocol state — mid-chunk-stream, pre-Prepare, post-Commit,
//    dest post-Prepared, dest post-Committed — after which exactly one
//    endpoint owns the workload and recover() reaches the same verdict
//    from the journals alone.
//  - JournalLayout: successive run_migration()s into one journal_dir are
//    keyed by their txn ids, so listing, recovery and GC see each one.
//  - Resume: a mid-stream disconnect resumes from the chunk count the
//    destination announces in its ResumeHello; the net.* byte counters
//    prove only the tail was retransmitted, and the restored state is
//    identical to a clean run.
//  - Digest / DigestVeto: a single-byte corruption of the canonical stream
//    that passes the frame seal (CorruptMasked) is caught by the
//    end-to-end digest before the destination may vote; the vetoed
//    incarnation is replaced by a fresh one that votes on the clean
//    replay, and only that vote is committed (Memory and Socket).
//  - DeadDestination: a host that dies after accepting a resume port
//    answers that port instead of leaving the source waiting on it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>

#include "apps/bitonic.hpp"
#include "hpm/migrate.hpp"
#include "mig/dest_host.hpp"  // internal unit: DestinationHost answering a resume port
#include "mig/journal.hpp"    // internal unit: Journal::replay, listing and GC
#include "mig/port.hpp"       // internal unit: DirectPort
#include "net/mem_channel.hpp"

namespace hpm::mig {
namespace {

/// Wire framing constants of the message layer: type(1)+len(4) header,
/// seal(4) trailer; StateBegin payload is chunk_bytes(4)+txn(8)+incarnation(4).
constexpr std::uint64_t kFrameOverhead = 9;
constexpr std::uint64_t kStateBeginWire = kFrameOverhead + 16;

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hpm_txn_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Transactional pipelined bitonic run with the crash-matrix shape:
  /// one chunk, no retries — so every source frame index names one
  /// protocol state (0 StateBegin, 1 StateChunk, 2 StateEnd, 3 Prepare,
  /// 4 Commit) and every destination frame index too (0 Hello,
  /// 1 PrepareAck, 2 final Ack).
  RunOptions matrix_options(apps::BitonicResult& result) {
    RunOptions options;
    options.register_types = apps::bitonic_register_types;
    options.program = [&result](MigContext& ctx) {
      apps::bitonic_program(ctx, 6, 9, &result);
    };
    options.migrate_at_poll = 50;
    options.pipeline = true;
    options.chunk_bytes = 1u << 20;  // the whole stream in one chunk
    options.max_retries = 0;         // the matrix studies the crash, not retries
    options.journal_dir = dir_.string();
    return options;
  }

  RecoveryVerdict recover() const { return hpm::recover(dir_.string()); }

  std::filesystem::path dir_;
};

using TxnRecovery = TxnTest;

TEST_F(TxnRecovery, SourceCrashMidChunkStream) {
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.fault_plan = net::FaultPlan::kill_after(1);  // dies sending the chunk

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::SourceCrashed);
  EXPECT_FALSE(report.migrated);
  EXPECT_FALSE(result.done) << "neither endpoint may have run the workload";
  EXPECT_NE(report.txn_id, 0u);

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Source) << v.reason;
  EXPECT_EQ(v.txn_id, report.txn_id);
  EXPECT_FALSE(v.completed);
}

TEST_F(TxnRecovery, SourceCrashBeforePrepare) {
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.fault_plan = net::FaultPlan::kill_after(3);  // dies sending Prepare

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::SourceCrashed);
  EXPECT_FALSE(report.migrated) << "the destination restored but may not commit";
  EXPECT_FALSE(result.done);

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Source) << v.reason;
  EXPECT_FALSE(v.completed);
}

TEST_F(TxnRecovery, SourceCrashAfterCommitRecord) {
  // The Commit record is fsync'd before the Commit frame is sent; the
  // crash eats the frame. The in-doubt destination must find the record
  // in the source's journal and finish the workload.
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.fault_plan = net::FaultPlan::kill_after(4);  // dies sending Commit

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::SourceCrashed);
  EXPECT_TRUE(report.migrated) << "the destination recovered the verdict and finished";
  EXPECT_TRUE(result.ok()) << "the workload ran exactly once, on the destination";
  EXPECT_GE(report.metrics.counter("mig.txn.indoubt_recoveries"), 1u);

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
}

TEST_F(TxnRecovery, DestinationCrashAfterPrepared) {
  // The destination voted yes and died sending PrepareAck. The source
  // journals Abort and — no retry budget here — degrades to local
  // completion: it still owns the process.
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.dest_fault_plan = net::FaultPlan::kill_after(1);

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::AbortedContinuedLocally);
  EXPECT_FALSE(report.migrated);
  EXPECT_TRUE(result.ok()) << "the source finished the workload locally";

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Source) << v.reason;
}

TEST_F(TxnRecovery, DestinationCrashAfterCommitted) {
  // Commit went through, Committed is journaled, the workload tail ran —
  // then the confirmation Ack died with the destination. The source must
  // NOT fall back to local completion.
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.dest_fault_plan = net::FaultPlan::kill_after(2);

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::CommittedUnconfirmed);
  EXPECT_TRUE(report.migrated);
  EXPECT_TRUE(result.ok()) << "the workload ran exactly once, on the destination";

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
  EXPECT_FALSE(v.completed) << "Done was never confirmed to the source";
}

TEST_F(TxnRecovery, CleanRunClosesTheTransaction) {
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_TRUE(result.ok());
  EXPECT_NE(report.txn_id, 0u);
  EXPECT_GE(report.metrics.counter("mig.txn.begins"), 1u);
  EXPECT_GE(report.metrics.counter("mig.txn.prepares"), 1u);
  EXPECT_EQ(report.metrics.counter("mig.txn.commits"), 1u) << "the source's decision";
  EXPECT_EQ(report.metrics.counter("mig.txn.dest_committed"), 1u);
  EXPECT_EQ(report.metrics.counter("mig.txn.aborts"), 0u);

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Destination);
  EXPECT_EQ(v.txn_id, report.txn_id);
  EXPECT_TRUE(v.completed) << "Done recorded: nothing to recover";
}

using JournalLayout = TxnTest;

TEST_F(JournalLayout, SuccessiveRunsAreListedRecoveredAndSwept) {
  apps::BitonicResult first_result, second_result;
  RunOptions first_options = matrix_options(first_result);
  RunOptions second_options = matrix_options(second_result);
  const MigrationReport first = run_migration(first_options);
  const MigrationReport second = run_migration(second_options);
  ASSERT_EQ(first.outcome, MigrationOutcome::Migrated);
  ASSERT_EQ(second.outcome, MigrationOutcome::Migrated);
  ASSERT_LT(first.txn_id, second.txn_id) << "txn ids grow across successive runs";

  const std::string dir = dir_.string();
  EXPECT_EQ(list_journaled_txns(dir),
            (std::vector<std::uint64_t>{first.txn_id, second.txn_id}));

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.txn_id, second.txn_id) << "the latest run is arbitrated";
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
  EXPECT_TRUE(v.completed) << v.reason;

  EXPECT_EQ(gc_completed_txn_journals(dir),
            (std::vector<std::uint64_t>{first.txn_id, second.txn_id}));
  EXPECT_TRUE(list_journaled_txns(dir).empty());
}

// --- resumable transfer ----------------------------------------------------

/// Small-chunk pipelined run used by the resume and digest suites.
RunOptions streaming_options(apps::BitonicResult& result) {
  RunOptions options;
  options.register_types = apps::bitonic_register_types;
  options.program = [&result](MigContext& ctx) {
    apps::bitonic_program(ctx, 6, 9, &result);
  };
  options.migrate_at_poll = 50;
  options.pipeline = true;
  options.chunk_bytes = 512;
  return options;
}

constexpr std::uint64_t kChunkWire = 512 + 13;  // frame overhead + seq

TEST(Resume, MidStreamDisconnectResumesFromTheWatermark) {
  // Clean run: baseline for wire bytes and the workload fingerprint.
  apps::BitonicResult clean_result;
  RunOptions clean = streaming_options(clean_result);
  const MigrationReport c = run_migration(clean);
  ASSERT_EQ(c.outcome, MigrationOutcome::Migrated);
  ASSERT_TRUE(clean_result.ok());
  const std::uint64_t stream = c.stream_bytes;
  const std::uint64_t chunks = (stream + 511) / 512;
  ASSERT_GT(chunks, 4u) << "the stream must span enough chunks to resume inside";
  const std::uint64_t clean_wire = c.metrics.counter("net.frames.bytes_sent");

  // Faulty run: the link dies mid-stream, around chunk `chunks/2`.
  apps::BitonicResult result;
  RunOptions options = streaming_options(result);
  options.fault_plan.kind = net::FaultKind::Disconnect;
  options.fault_plan.offset = kStateBeginWire + (chunks / 2) * kChunkWire + 100;

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 2) << "one failure, one resume";
  ASSERT_EQ(report.failure_causes.size(), 1u);
  EXPECT_NE(report.failure_causes[0].find("attempt 1"), std::string::npos);
  EXPECT_GT(report.resumed_from_seq, 0) << "the resume must start past chunk 0";
  EXPECT_LT(report.resumed_from_seq, static_cast<std::int64_t>(chunks));
  EXPECT_GE(report.metrics.counter("mig.resume.attempts"), 1u);
  EXPECT_GE(report.metrics.counter("mig.resume.chunks_skipped"),
            static_cast<std::uint64_t>(report.resumed_from_seq));

  // Restored state identical to the clean run's.
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, clean_result.sum_after);
  EXPECT_EQ(report.stream_bytes, stream);

  // The wire carried the stream ONCE plus only the resumed tail — not a
  // full retransmit. Acks, ResumeHello, and the second commit exchange
  // are small against 0.75x the stream.
  const std::uint64_t faulty_wire = report.metrics.counter("net.frames.bytes_sent");
  EXPECT_LT(faulty_wire, clean_wire + (stream * 3) / 4)
      << "a resume must not retransmit the acked prefix";
}

TEST(Resume, WatermarkSurvivesTwoDisconnects) {
  // Two mid-stream failures, two resumes: the watermark only moves
  // forward, so the third attempt still only carries the remaining tail.
  apps::BitonicResult probe_result;
  RunOptions probe = streaming_options(probe_result);
  const MigrationReport p = run_migration(probe);
  ASSERT_EQ(p.outcome, MigrationOutcome::Migrated);
  const std::uint64_t chunks = (p.stream_bytes + 511) / 512;
  ASSERT_GT(chunks, 6u);

  apps::BitonicResult result;
  RunOptions options = streaming_options(result);
  options.max_retries = 3;
  options.fault_plan.kind = net::FaultKind::Disconnect;
  options.fault_plan.offset = kStateBeginWire + (chunks / 3) * kChunkWire + 50;
  options.fault_plan.max_firings = 2;  // attempt 2's resume dies too

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.failure_causes.size(), 2u);
  EXPECT_GT(report.resumed_from_seq, 0);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, probe_result.sum_after);
  EXPECT_GE(report.metrics.counter("mig.resume.attempts"), 2u);
}

// --- end-to-end digest ------------------------------------------------------

TEST(Digest, MaskedCorruptionIsCaughtBeforeCommit) {
  // Probe run: learn the stream geometry so the corruption can be aimed
  // at the last bytes of the canonical stream — content the incremental
  // decoder never interprets, so ONLY the end-to-end digest can object.
  apps::BitonicResult probe_result;
  RunOptions probe = streaming_options(probe_result);
  const MigrationReport p = run_migration(probe);
  ASSERT_EQ(p.outcome, MigrationOutcome::Migrated);
  const std::uint64_t stream = p.stream_bytes;
  const std::uint64_t chunks = (stream + 511) / 512;
  const std::uint64_t last_len = stream - (chunks - 1) * 512;
  ASSERT_GT(last_len, 4u);

  apps::BitonicResult result;
  RunOptions options = streaming_options(result);
  options.fault_plan.kind = net::FaultKind::CorruptMasked;
  // Second-to-last byte of the stream, inside the last chunk's payload:
  // wire offset = StateBegin + full chunks + header(5) + seq(4) + index.
  options.fault_plan.offset =
      kStateBeginWire + (chunks - 1) * kChunkWire + 9 + (last_len - 2);

  const MigrationReport report = run_migration(options);
  // Attempt 1: every frame seal passes, the destination assembles the full
  // stream, restores — and the digest comparison vetoes the handoff
  // before the destination may vote. Attempt 2 replays the retained
  // stream to a fresh incarnation, which verifies it and votes.
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.dest_incarnation, 2u) << "the retry is a new incarnation";
  ASSERT_EQ(report.failure_causes.size(), 1u);
  EXPECT_NE(report.failure_causes[0].find("digest"), std::string::npos)
      << "caught by: " << report.failure_causes[0];
  EXPECT_EQ(report.metrics.counter("net.frames.seal_failures"), 0u)
      << "masked corruption must NOT be a frame-seal catch";
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, probe_result.sum_after);
}

class DigestVeto : public ::testing::TestWithParam<Transport> {};

TEST_P(DigestVeto, VetoedIncarnationIsReplacedByOneThatVotes) {
  // A veto ends incarnation 1, not the transaction: the retry replays the
  // retained stream to incarnation 2, and the source commits only after
  // that destination's PrepareAck. Both sides journal the digest the
  // collection computed, and arbitration names incarnation 2 alone. The
  // "digest" cause must survive the destination's close on either
  // transport: the source reads the Error frame left in the channel.
  apps::BitonicResult probe_result;
  RunOptions probe = streaming_options(probe_result);
  probe.transport = GetParam();
  const MigrationReport p = run_migration(probe);
  ASSERT_EQ(p.outcome, MigrationOutcome::Migrated);
  const std::uint64_t stream = p.stream_bytes;
  const std::uint64_t chunks = (stream + 511) / 512;
  const std::uint64_t last_len = stream - (chunks - 1) * 512;
  ASSERT_GT(last_len, 4u);

  apps::BitonicResult result;
  RunOptions options = streaming_options(result);
  options.transport = GetParam();
  options.fault_plan.kind = net::FaultKind::CorruptMasked;
  options.fault_plan.offset =
      kStateBeginWire + (chunks - 1) * kChunkWire + 9 + (last_len - 2);
  options.journal_dir = (std::filesystem::temp_directory_path() /
                         ("hpm_digest_veto_" + std::string(net::transport_name(GetParam())) +
                          "_" + std::to_string(::getpid())))
                            .string();
  std::filesystem::remove_all(options.journal_dir);
  const MigrationReport report = run_migration(options);
  ASSERT_EQ(report.outcome, MigrationOutcome::Migrated);
  ASSERT_EQ(report.attempts, 2);
  EXPECT_EQ(report.dest_incarnation, 2u);
  ASSERT_EQ(report.failure_causes.size(), 1u);
  EXPECT_NE(report.failure_causes[0].find("digest"), std::string::npos)
      << "caught by: " << report.failure_causes[0];
  EXPECT_EQ(report.stream_digest, p.stream_digest);
  EXPECT_TRUE(result.ok());

  const std::string dir = options.journal_dir + "/";
  int decisions = 0;
  for (const JournalRecord& r :
       Journal::replay(dir + keyed_source_journal_name(report.txn_id))) {
    if (r.type != JournalRecordType::Commit && r.type != JournalRecordType::Done) continue;
    ++decisions;
    EXPECT_EQ(r.incarnation, 2u) << journal_record_name(r.type);
    EXPECT_EQ(r.digest, report.stream_digest) << journal_record_name(r.type);
  }
  EXPECT_EQ(decisions, 2) << "Commit and Done, both for incarnation 2";

  int votes = 0;
  for (const JournalRecord& r :
       Journal::replay(dir + keyed_dest_journal_name(report.txn_id, 2))) {
    if (r.type != JournalRecordType::Prepared && r.type != JournalRecordType::Committed) {
      continue;
    }
    ++votes;
    EXPECT_EQ(r.incarnation, 2u) << journal_record_name(r.type);
    EXPECT_EQ(r.digest, report.stream_digest) << journal_record_name(r.type);
  }
  EXPECT_EQ(votes, 2) << "Prepared and Committed in dest-<txn>.i2.journal";

  const RecoveryVerdict v = hpm::recover(options.journal_dir);
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
  EXPECT_EQ(v.txn_id, report.txn_id);
  EXPECT_EQ(v.incarnation, 2u) << v.reason;
  EXPECT_EQ(v.committed_destinations, 1u) << v.reason;
  EXPECT_TRUE(v.completed) << v.reason;
  std::filesystem::remove_all(options.journal_dir);
}

INSTANTIATE_TEST_SUITE_P(MemAndSocket, DigestVeto,
                         ::testing::Values(Transport::Memory, Transport::Socket),
                         [](const ::testing::TestParamInfo<Transport>& p) {
                           return std::string(net::transport_name(p.param));
                         });

TEST(Digest, CleanStreamsCarryTheDigestEndToEnd) {
  apps::BitonicResult result;
  RunOptions options = streaming_options(result);
  options.journal_dir = (std::filesystem::temp_directory_path() /
                         ("hpm_digest_clean_" + std::to_string(::getpid())))
                            .string();
  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_TRUE(result.ok());
  // The journals carry the digest the two ends agreed on.
  const std::string dir = options.journal_dir + "/";
  const std::uint64_t txn = report.txn_id;
  std::uint64_t src_digest = 0, dst_digest = 0;
  for (const JournalRecord& r : Journal::replay(dir + keyed_source_journal_name(txn))) {
    if (r.type == JournalRecordType::Commit) src_digest = r.digest;
  }
  for (const JournalRecord& r : Journal::replay(dir + keyed_dest_journal_name(txn))) {
    if (r.type == JournalRecordType::Committed) dst_digest = r.digest;
  }
  EXPECT_NE(src_digest, 0u);
  EXPECT_EQ(src_digest, dst_digest);
  std::filesystem::remove_all(options.journal_dir);
}

// --- a dying destination answers the resume port it accepted ---------------

TEST(DeadDestination, AnswersAnAcceptedResumePortWithError) {
  apps::BitonicResult result;
  const RunOptions options = streaming_options(result);
  MigrationReport report;
  Journal journal;
  DestinationHost host(options, report, journal, "", std::chrono::milliseconds(0), 0);

  auto [first_src, first_dst] = net::MemChannel::make_pair();
  DirectPort first(std::move(first_src));
  host.start(std::make_unique<DirectPort>(std::move(first_dst)));
  ASSERT_EQ(first.recv().type, net::MsgType::Hello);

  // The host is alive, so it accepts a resume port; then its first link
  // dies under its initial recv and so does the host.
  auto [second_src, second_dst] = net::MemChannel::make_pair();
  DirectPort second(std::move(second_src));
  ASSERT_TRUE(host.offer(std::make_unique<DirectPort>(std::move(second_dst))));
  first.abort();

  second.set_timeout(std::chrono::seconds(2));
  net::Message reply;
  ASSERT_NO_THROW(reply = second.recv()) << "the accepted port was never answered";
  EXPECT_EQ(reply.type, net::MsgType::Error);
  host.join();
  EXPECT_FALSE(host.resumable());
}

}  // namespace
}  // namespace hpm::mig
