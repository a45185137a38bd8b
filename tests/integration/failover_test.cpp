// Destination failover (DESIGN.md §16), attacked at every protocol state.
//
// Five suites:
//  - FailoverMatrix: the primary destination is killed at each protocol
//    state — sending its Hello, after its Hello, after every chunk it
//    receives, casting its vote, and mid-manifest-negotiation — and the
//    migration must complete on the standby under incarnation 2 with a
//    restored state bit-identical to a fault-free run, while journal
//    arbitration names exactly one committed owner. The post-commit kill
//    is the at-most-once counterexample: the primary already owns the
//    process, so failover must NOT fire.
//  - WarmStandby: a standby whose ChunkStore already holds the stream's
//    chunks receives only the manifest plus misses — the failover replay
//    puts well under 5% of the stream on the wire.
//  - Fencing: a revived stale-incarnation destination refuses Prepare and
//    Commit frames addressed to a newer incarnation (MigrationError, the
//    mig.failover.fenced counter moves), and a PrepareAck echoing a stale
//    incarnation is rejected by the source machine.
//  - WedgedFailover: a wedged (blackholed) session with a standby
//    configured is ended by its per-IO deadline and resumes on its
//    primary from the chunk count the primary announces, instead of
//    degrading to local completion.
//  - FailoverDial: a standby that cannot be dialed is tried exactly
//    1 + max_retries times, counted as a dial failure, and skipped for the
//    next candidate.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/bitonic.hpp"
#include "hpm/migrate.hpp"
#include "mig/fleet.hpp"        // internal unit: run_session over a SessionWiring
#include "mig/session.hpp"      // internal unit: the fencing of the session machines
#include "net/message.hpp"
#include "obs/metrics.hpp"

namespace hpm::mig {
namespace {

constexpr std::uint64_t kTxn = 91;
constexpr std::uint32_t kChunkBytes = 512;

/// Wire framing constants of the message layer: type(1)+len(4) header,
/// seal(4) trailer; StateBegin's payload is 16 bytes, a StateChunk's the
/// u32 seq plus the chunk's bytes.
constexpr std::uint64_t kFrameOverhead = 9;
constexpr std::uint64_t kStateBeginWire = kFrameOverhead + 16;
constexpr std::uint64_t kChunkFrameOverhead = kFrameOverhead + 4;

/// Fault-free ground truth for the matrix workload, computed once per
/// process: the digest certifies bit-identical restored state, the sum is
/// the workload's answer, and the chunk count maps destination frame
/// indices onto protocol states.
struct Baseline {
  std::uint64_t digest = 0;
  std::uint64_t sum = 0;
  std::uint64_t stream_bytes = 0;
  std::uint64_t chunks = 0;
};

RunOptions base_options(apps::BitonicResult& result) {
  RunOptions options;
  options.register_types = apps::bitonic_register_types;
  options.program = [&result](MigContext& ctx) {
    apps::bitonic_program(ctx, 6, 9, &result);
  };
  options.migrate_at_poll = 50;
  options.pipeline = true;
  options.chunk_bytes = kChunkBytes;
  options.io_timeout_seconds = 1.0;  // a dead primary is declared fast
  return options;
}

const Baseline& baseline() {
  static const Baseline b = [] {
    apps::BitonicResult result;
    RunOptions options = base_options(result);
    const MigrationReport report = run_migration(options);
    EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
    EXPECT_TRUE(result.ok());
    EXPECT_NE(report.stream_digest, 0u);
    Baseline bl;
    bl.digest = report.stream_digest;
    bl.sum = result.sum_after;
    bl.stream_bytes = report.stream_bytes;
    bl.chunks = (report.stream_bytes + kChunkBytes - 1) / kChunkBytes;
    EXPECT_GT(bl.chunks, 4u) << "the matrix needs a multi-chunk stream";
    return bl;
  }();
  return b;
}

/// Kill the primary once it has received chunk `i` whole (i = 0: right
/// after StateBegin, before any chunk): the recv of the next frame dies.
net::FaultPlan killed_after_chunk(std::uint64_t i) {
  const std::uint64_t chunk_bytes =
      std::min<std::uint64_t>(i * kChunkBytes, baseline().stream_bytes);
  net::FaultPlan plan;
  plan.kind = net::FaultKind::KillOnRecv;
  plan.offset = kStateBeginWire + i * kChunkFrameOverhead + chunk_bytes;
  return plan;
}

class FailoverMatrix : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("hpm_failover_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  /// The matrix shape: the streaming transactional run of base_options()
  /// plus journals and ONE cold standby, no resume budget — a dead
  /// primary must fail over, not resume. The destination's schedule is
  /// fully determined: it sends frame 0 Hello, 1 PrepareAck, 2 final Ack,
  /// so kill_after(n) scripts its death at a send, and it receives
  /// StateBegin, then one StateChunk per chunk, so a KillOnRecv offset at
  /// a frame boundary (killed_after_chunk) scripts its death mid-stream.
  RunOptions matrix_options(apps::BitonicResult& result) {
    RunOptions options = base_options(result);
    options.max_retries = 0;
    options.journal_dir = (root_ / "journals").string();
    DestinationCandidate standby;
    standby.name = "standby-a";
    options.failover.standbys.push_back(standby);
    return options;
  }

  /// Kill the primary by `plan`; the standby must finish the migration
  /// with a bit-identical restore, and arbitration must name exactly one
  /// committed owner: incarnation 2.
  void run_killed(const net::FaultPlan& plan, const std::string& state_label) {
    SCOPED_TRACE("primary killed " + state_label);
    apps::BitonicResult result;
    RunOptions options = matrix_options(result);
    options.dest_fault_plan = plan;

    const MigrationReport report = run_migration(options);
    EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
    EXPECT_TRUE(report.migrated);
    EXPECT_EQ(report.failovers, 1);
    EXPECT_EQ(report.dest_incarnation, 2u);
    EXPECT_GT(report.failover_downtime_seconds, 0.0);
    EXPECT_GE(report.metrics.counter("mig.failover.triggered"), 1u);
    EXPECT_GE(report.metrics.counter("mig.failover.redirects"), 1u);

    // Bit-identical restore on exactly one host: the workload ran once,
    // on the standby, over the same canonical stream as a fault-free run.
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.sum_after, baseline().sum);
    EXPECT_EQ(report.stream_digest, baseline().digest)
        << "replayed stream diverged from the fault-free collection";

    const RecoveryVerdict v = recover(options.journal_dir);
    EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
    EXPECT_EQ(v.txn_id, report.txn_id);
    EXPECT_EQ(v.incarnation, 2u) << v.reason;
    EXPECT_EQ(v.committed_destinations, 1u)
        << "exactly one destination may hold a Committed record: " << v.reason;
    EXPECT_TRUE(v.completed) << v.reason;

    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "outcome " << outcome_name(report.outcome) << " after "
                    << report.attempts << " attempts; causes:\n  "
                    << [&] {
                         std::string all;
                         for (const std::string& c : report.failure_causes) {
                           all += c + "\n  ";
                         }
                         return all;
                       }();
    }
  }

  std::filesystem::path root_;
};

TEST_F(FailoverMatrix, PrimaryKilledBeforeHello) {
  // Send 0 is the primary's Hello: the source never rendezvouses, runs
  // the program sink-less, and hands the retained stream to the standby.
  run_killed(net::FaultPlan::kill_after(0), "sending its Hello");
}

TEST_F(FailoverMatrix, PrimaryKilledAfterEveryChunk) {
  // Received-byte 0: the Hello went out and the primary dies awaiting
  // StateBegin. Then every frame boundary of the chunk stream, from right
  // after StateBegin to right after the last chunk (StateEnd unread).
  net::FaultPlan after_hello;
  after_hello.kind = net::FaultKind::KillOnRecv;
  after_hello.offset = 0;
  run_killed(after_hello, "after its Hello, before StateBegin");
  for (std::uint64_t i = 0; i <= baseline().chunks; ++i) {
    run_killed(killed_after_chunk(i),
               "after chunk " + std::to_string(i) + " of " +
                   std::to_string(baseline().chunks));
  }
}

TEST_F(FailoverMatrix, PrimaryKilledCastingItsVote) {
  // The primary journaled Prepared under incarnation 1 and died sending
  // PrepareAck (send 1); the standby's Committed(2) must win arbitration
  // over the stale prepared journal.
  run_killed(net::FaultPlan::kill_after(1), "sending PrepareAck");
}

TEST_F(FailoverMatrix, PostCommitDeathIsNotFailedOver) {
  // The primary received Commit, journaled Committed, ran the workload —
  // and died sending the confirmation Ack (send 2). At-most-once: the
  // standby must NOT be dialed; the primary owns the process.
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.dest_fault_plan = net::FaultPlan::kill_after(2);

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::CommittedUnconfirmed);
  EXPECT_TRUE(report.migrated);
  EXPECT_EQ(report.failovers, 0);
  EXPECT_EQ(report.dest_incarnation, 1u);
  EXPECT_TRUE(result.ok()) << "the workload ran exactly once, on the primary";
  EXPECT_EQ(result.sum_after, baseline().sum);
  EXPECT_EQ(report.metrics.counter("mig.failover.redirects"), 0u);

  const RecoveryVerdict v = recover(options.journal_dir);
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
  EXPECT_EQ(v.incarnation, 1u) << v.reason;
  EXPECT_EQ(v.committed_destinations, 1u);
  EXPECT_FALSE(v.completed) << "Done was never confirmed to the source";
}

TEST_F(FailoverMatrix, PrimaryKilledMidManifestNegotiation) {
  // Dedup'd primary: frames are 0 Hello, 1 ManifestAck, 2 PrepareAck,
  // 3 Ack. Killing frame 1 leaves the source mid-negotiation; the cold
  // standby gets the raw [0, end) replay.
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.chunk_cache_dir = (root_ / "primary_store").string();
  options.dest_fault_plan = net::FaultPlan::kill_after(1);

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.failovers, 1);
  EXPECT_EQ(report.dest_incarnation, 2u);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, baseline().sum);
  EXPECT_EQ(report.stream_digest, baseline().digest);

  const RecoveryVerdict v = recover(options.journal_dir);
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
  EXPECT_EQ(v.incarnation, 2u) << v.reason;
  EXPECT_EQ(v.committed_destinations, 1u);
}

TEST_F(FailoverMatrix, SecondStandbyWinsWhenTheFirstDiesToo) {
  // Chaos squared: the primary dies mid-stream, standby-a dies at its own
  // Hello, standby-b finishes. Three incarnations touched, one committed.
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.failover.standbys[0].dest_fault_plan = net::FaultPlan::kill_after(0);
  DestinationCandidate second;
  second.name = "standby-b";
  options.failover.standbys.push_back(second);
  options.dest_fault_plan = killed_after_chunk(1 + baseline().chunks / 2);

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.failovers, 2);
  EXPECT_EQ(report.dest_incarnation, 3u);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, baseline().sum);
  EXPECT_EQ(report.stream_digest, baseline().digest);

  const RecoveryVerdict v = recover(options.journal_dir);
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
  EXPECT_EQ(v.incarnation, 3u) << v.reason;
  EXPECT_EQ(v.committed_destinations, 1u);
}

// --- warm standby ----------------------------------------------------------

TEST_F(FailoverMatrix, WarmStandbyReceivesOnlyMisses) {
  // Warm the standby's store with a fault-free dedup migration of the
  // SAME workload — the canonical stream is deterministic, so every chunk
  // address recurs.
  const std::string standby_store = (root_ / "standby_store").string();
  {
    apps::BitonicResult warm_result;
    RunOptions warmup = base_options(warm_result);
    warmup.chunk_cache_dir = standby_store;
    const MigrationReport w = run_migration(warmup);
    ASSERT_EQ(w.outcome, MigrationOutcome::Migrated);
    ASSERT_TRUE(warm_result.ok());
    ASSERT_EQ(w.dedup_miss_chunks, w.dedup_manifest_chunks)
        << "a cold store misses everything";
  }

  // Kill the primary mid-stream; the standby negotiates the manifest
  // against its warm store, so only addresses + residual misses travel.
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.failover.standbys[0].chunk_cache_dir = standby_store;
  options.dest_fault_plan = killed_after_chunk(1 + baseline().chunks / 2);

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.failovers, 1);
  EXPECT_EQ(report.dest_incarnation, 2u);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, baseline().sum);
  EXPECT_EQ(report.stream_digest, baseline().digest);

  EXPECT_EQ(report.dedup_manifest_chunks, baseline().chunks);
  EXPECT_EQ(report.dedup_hit_chunks, baseline().chunks)
      << "every chunk of the deterministic stream must hit the warm store";
  EXPECT_EQ(report.dedup_miss_chunks, 0u);
  // The perf_guard gate (<5% re-send) in strict form: the failover replay
  // put only the manifest on the wire.
  EXPECT_LT(report.dedup_wire_bytes, report.stream_bytes / 20)
      << "warm-standby failover must re-send <5% of the stream bytes";
}

// --- fencing ---------------------------------------------------------------

net::Message hello_frame() {
  net::Message m;
  m.type = net::MsgType::Hello;
  m.payload = {net::kProtocolVersion};
  return m;
}

/// Drive a DestSession (the revived, presumed-dead primary: incarnation 1)
/// through a complete one-chunk stream, leaving it at the commit gate.
void drive_to_stream_complete(DestSession& d) {
  d.announce();
  net::Message begin;
  begin.type = net::MsgType::StateBegin;
  begin.payload = net::encode_state_begin(
      {.chunk_bytes = kChunkBytes, .txn_id = kTxn, .incarnation = 1});
  d.on_frame(begin);
  net::Message chunk;
  chunk.type = net::MsgType::StateChunk;
  const std::uint8_t body[] = {1, 2, 3};
  chunk.payload = net::encode_state_chunk(0, body);
  d.on_frame(chunk);
  net::Message end;
  end.type = net::MsgType::StateEnd;
  end.payload = net::encode_state_end(
      {.chunk_count = 1, .total_bytes = 3, .digest = 42});
  d.on_frame(end);
}

TEST(Fencing, StaleDestinationRefusesACommitForANewerIncarnation) {
  // The failover already moved the transaction to incarnation 2; a Commit
  // naming 2 that reaches the revived incarnation-1 destination must be
  // refused — this endpoint may not own the process.
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  DestSession d(9301);
  drive_to_stream_complete(d);
  net::Message prepare;
  prepare.type = net::MsgType::Prepare;
  prepare.payload = net::encode_txn_token({kTxn, 1});
  d.on_frame(prepare);
  ASSERT_EQ(d.state(), SessionState::Prepared);

  net::Message stale_commit;
  stale_commit.type = net::MsgType::Commit;
  stale_commit.payload = net::encode_txn_token({kTxn, 2});
  EXPECT_THROW(d.on_frame(stale_commit), MigrationError);
  EXPECT_EQ(d.state(), SessionState::Aborted);
  EXPECT_NE(d.abort_reason().find("fenced"), std::string::npos)
      << d.abort_reason();
  const obs::MetricsSnapshot delta =
      obs::Registry::process().snapshot().delta_since(before);
  EXPECT_GE(delta.counter("mig.failover.fenced"), 1u);
}

TEST(Fencing, StaleDestinationRefusesAPrepareForANewerIncarnation) {
  DestSession d(9302);
  drive_to_stream_complete(d);
  net::Message stale_prepare;
  stale_prepare.type = net::MsgType::Prepare;
  stale_prepare.payload = net::encode_txn_token({kTxn, 2});
  EXPECT_THROW(d.on_frame(stale_prepare), MigrationError);
  EXPECT_EQ(d.state(), SessionState::Aborted);
  EXPECT_NE(d.abort_reason().find("fenced"), std::string::npos)
      << d.abort_reason();
}

TEST(Fencing, SourceRejectsAPrepareAckEchoingAStaleIncarnation) {
  // The source redirected to incarnation 2; a straggler PrepareAck from
  // the fenced incarnation-1 primary must be rejected, not mistaken for
  // the standby's vote.
  SourceSession s(9303, kTxn);
  s.on_frame(hello_frame());
  s.begin_streaming();
  s.set_stream(1, 42);
  s.redirect_decided(2);
  s.on_frame(hello_frame());  // the standby announces
  s.begin_streaming();
  s.prepare_sent();

  net::Message stale_vote;
  stale_vote.type = net::MsgType::PrepareAck;
  stale_vote.payload =
      net::encode_prepare_ack({.txn_id = kTxn, .digest = 42, .incarnation = 1});
  EXPECT_THROW(s.on_frame(stale_vote), MigrationError);
  EXPECT_NE(s.abort_reason().find("fenced"), std::string::npos)
      << s.abort_reason();
}

// --- a wedged session with a standby configured -----------------------------

TEST(WedgedFailover, WedgedSessionResumesInsteadOfDegrading) {
  // Same wedge as the chaos soak's — a blackholed source port that errors
  // on nothing — but with a standby configured. The per-IO deadline ends
  // the wait; the primary destination parked on its own deadline and is
  // still resumable, so the session resumes there from the chunk count
  // it announces rather than failing over or degrading.
  const std::string journal_dir =
      "/tmp/hpm_failover_wedge_" + std::to_string(::getpid());
  std::filesystem::remove_all(journal_dir);

  apps::BitonicResult result;
  std::vector<SessionJob> jobs(1);
  jobs[0].options = base_options(result);
  jobs[0].options.journal_dir = journal_dir;
  DestinationCandidate standby;
  standby.name = "standby-a";
  jobs[0].options.failover.standbys.push_back(standby);
  jobs[0].options.io_timeout_seconds = 1.0;
  jobs[0].stall_after_frames = 12;

  const std::vector<SessionOutcome> outcomes = migrate_many(jobs, net::Transport::Memory);
  ASSERT_EQ(outcomes.size(), 1u);
  const MigrationReport& r = outcomes[0].report;
  EXPECT_EQ(r.outcome, MigrationOutcome::Migrated)
      << "a wedged session must resume, not degrade";
  EXPECT_GE(r.attempts, 2);
  EXPECT_GE(r.resumed_from_seq, 0);
  EXPECT_EQ(r.failovers, 0);
  EXPECT_EQ(r.dest_incarnation, 1u);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, baseline().sum);
  EXPECT_EQ(r.stream_digest, baseline().digest);

  const RecoveryVerdict v = recover(journal_dir, r.txn_id);
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
  EXPECT_EQ(v.incarnation, 1u) << v.reason;
  EXPECT_EQ(v.committed_destinations, 1u);
  std::filesystem::remove_all(journal_dir);
}

// --- failover dial budget ---------------------------------------------------

/// A fresh in-memory port pair; `dest_plan` scripts the destination's sends.
PortPair memory_pair(const net::FaultPlan& dest_plan = {}) {
  net::ChannelPair channels = net::make_channel_pair(net::Transport::Memory);
  std::unique_ptr<net::ByteChannel> dest = std::move(channels.destination);
  if (dest_plan.enabled()) {
    dest = std::make_unique<net::FaultyChannel>(std::move(dest), dest_plan,
                                                std::make_shared<net::FaultState>());
  }
  PortPair pair;
  pair.source = std::make_unique<DirectPort>(std::move(channels.source));
  pair.destination = std::make_unique<DirectPort>(std::move(dest));
  return pair;
}

TEST(FailoverDial, UnreachableStandbyIsDialedOnTheRetryBudgetThenSkipped) {
  // The primary dies sending its Hello; standby-a refuses every dial;
  // standby-b finishes. One retry budget governs the dials: standby-a is
  // tried exactly 1 + max_retries times before the failover moves on.
  const std::string journal_dir = "/tmp/hpm_failover_dial_" + std::to_string(::getpid());
  std::filesystem::remove_all(journal_dir);
  apps::BitonicResult result;
  RunOptions options = base_options(result);
  options.max_retries = 1;
  options.journal_dir = journal_dir;
  options.failover.standbys.resize(2);
  options.failover.standbys[0].name = "standby-a";
  options.failover.standbys[1].name = "standby-b";

  int standby_a_dials = 0;
  SessionWiring wiring;
  wiring.session_id = 9401;
  wiring.connect = [] { return memory_pair(net::FaultPlan::kill_after(0)); };
  wiring.connect_standby = [&standby_a_dials](std::size_t k) {
    if (k == 0) {
      ++standby_a_dials;
      throw NetError("connection refused by standby-a");
    }
    return memory_pair();
  };

  const MigrationReport report = run_session(options, wiring);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_TRUE(report.migrated);
  EXPECT_EQ(standby_a_dials, 1 + options.max_retries);
  EXPECT_EQ(report.failovers, 1) << "only a dialed candidate counts as a redirect";
  EXPECT_EQ(report.dest_incarnation, 3u) << "standby-b is the second candidate";
  EXPECT_EQ(report.metrics.counter("mig.failover.dial_failures"), 1u);
  bool cause_recorded = false;
  for (const std::string& c : report.failure_causes) {
    cause_recorded = cause_recorded ||
                     c == "failover to standby-a: connection refused by standby-a";
  }
  EXPECT_TRUE(cause_recorded);

  // Bit-identical restore on standby-b alone.
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, baseline().sum);
  EXPECT_EQ(report.stream_digest, baseline().digest);
  const RecoveryVerdict v = recover(journal_dir, report.txn_id);
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
  EXPECT_EQ(v.incarnation, 3u) << v.reason;
  EXPECT_EQ(v.committed_destinations, 1u);
  std::filesystem::remove_all(journal_dir);
}

}  // namespace
}  // namespace hpm::mig
