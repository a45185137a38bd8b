// LiveCluster: real migrations between worker nodes.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "mig/annotate.hpp"
#include "sched/live.hpp"

namespace hpm::sched {
namespace {

void no_types(ti::TypeTable&) {}

/// Busy migratable loop; records which values it accumulated. Sets
/// `*running` (if given) once the loop is under way on some node.
void spin_job(mig::MigContext& ctx, int iters, std::atomic<long>* sink,
              std::atomic<bool>* running = nullptr) {
  HPM_FUNCTION(ctx);
  int i;
  long acc;
  HPM_LOCAL(ctx, i);
  HPM_LOCAL(ctx, acc);
  HPM_LOCAL(ctx, iters);
  HPM_BODY(ctx);
  acc = 0;
  for (i = 0; i < iters; ++i) {
    HPM_POLL(ctx, 1);
    acc += i;
    if (running != nullptr) running->store(true, std::memory_order_relaxed);
  }
  sink->store(acc);
  HPM_BODY_END(ctx);
}

/// Wait until a job reports its loop running: an order sent before that
/// finds it still queued and requeues it without a migration, so a fixed
/// sleep is not enough on a loaded host.
void await_running(const std::atomic<bool>& running) {
  while (!running.load(std::memory_order_relaxed)) std::this_thread::yield();
}

long expected_sum(int iters) {
  long acc = 0;
  for (int i = 0; i < iters; ++i) acc += i;
  return acc;
}

TEST(LiveCluster, JobsRunToCompletionWithoutOrders) {
  LiveCluster cluster(2, no_types);
  std::atomic<long> a{-1}, b{-1};
  cluster.submit([&a](mig::MigContext& ctx) { spin_job(ctx, 100, &a); }, 0);
  cluster.submit([&b](mig::MigContext& ctx) { spin_job(ctx, 50, &b); }, 1);
  cluster.start();
  const auto reports = cluster.wait_all();
  EXPECT_EQ(a.load(), expected_sum(100));
  EXPECT_EQ(b.load(), expected_sum(50));
  EXPECT_EQ(reports[0].finished_on, 0);
  EXPECT_EQ(reports[1].finished_on, 1);
  EXPECT_EQ(reports[0].migrations, 0u);
  EXPECT_TRUE(reports[0].done);
}

TEST(LiveCluster, QueuedJobMovesWithoutCollection) {
  // Node 0's worker is busy with a long job, so the second submission
  // sits queued; migrating it to node 1 is a free requeue.
  LiveCluster cluster(2, no_types);
  std::atomic<long> a{-1}, b{-1};
  const int long_job =
      cluster.submit([&a](mig::MigContext& ctx) { spin_job(ctx, 2000000, &a); }, 0);
  const int queued =
      cluster.submit([&b](mig::MigContext& ctx) { spin_job(ctx, 10, &b); }, 0);
  cluster.migrate(queued, 1);  // before start: definitely still queued
  cluster.start();
  const auto reports = cluster.wait_all();
  EXPECT_EQ(b.load(), expected_sum(10));
  EXPECT_EQ(reports[queued].finished_on, 1);
  EXPECT_EQ(reports[queued].migrations, 0u);  // moved while queued: no stream
  EXPECT_TRUE(reports[long_job].done);
}

TEST(LiveCluster, LiveJobMigratesMidLoopAndFinishesElsewhere) {
  LiveCluster cluster(2, no_types);
  std::atomic<long> sink{-1};
  std::atomic<bool> running{false};
  const int job = cluster.submit(
      [&](mig::MigContext& ctx) { spin_job(ctx, 30000000, &sink, &running); }, 0);
  cluster.start();
  // Let it get going, then order the move.
  await_running(running);
  cluster.migrate(job, 1);
  const auto reports = cluster.wait_all();
  EXPECT_EQ(sink.load(), expected_sum(30000000));
  EXPECT_TRUE(reports[job].done);
  EXPECT_EQ(reports[job].finished_on, 1);
  EXPECT_EQ(reports[job].migrations, 1u);
  EXPECT_GT(reports[job].moved_bytes, 0u);
}

TEST(LiveCluster, ChainOfOrdersHopsAcrossNodes) {
  LiveCluster cluster(3, no_types);
  std::atomic<long> sink{-1};
  std::atomic<bool> running{false};
  const int job = cluster.submit(
      [&](mig::MigContext& ctx) { spin_job(ctx, 50000000, &sink, &running); }, 0);
  cluster.start();
  await_running(running);
  cluster.migrate(job, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cluster.migrate(job, 2);
  const auto reports = cluster.wait_all();
  EXPECT_EQ(sink.load(), expected_sum(50000000));
  EXPECT_TRUE(reports[job].done);
  EXPECT_GE(reports[job].migrations, 1u);
}

TEST(LiveCluster, AutoBalancerSpreadsAHotNode) {
  LiveCluster cluster(4, no_types);
  std::vector<std::unique_ptr<std::atomic<long>>> sinks;
  for (int i = 0; i < 8; ++i) {
    sinks.push_back(std::make_unique<std::atomic<long>>(-1));
    auto* sink = sinks.back().get();
    cluster.submit([sink](mig::MigContext& ctx) { spin_job(ctx, 4000000, sink); }, 0);
  }
  cluster.enable_auto_balance(0.002);
  cluster.start();
  const auto reports = cluster.wait_all();
  int off_home = 0;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(sinks[i]->load(), expected_sum(4000000)) << i;
    EXPECT_TRUE(reports[i].done);
    if (reports[i].finished_on != 0) ++off_home;
  }
  EXPECT_GT(off_home, 0) << "balancer never moved anything";
}

TEST(LiveCluster, FailingJobDoesNotHangTheCluster) {
  LiveCluster cluster(1, no_types);
  const int bad = cluster.submit([](mig::MigContext&) { throw std::runtime_error("boom"); }, 0);
  std::atomic<long> sink{-1};
  cluster.submit([&sink](mig::MigContext& ctx) { spin_job(ctx, 10, &sink); }, 0);
  cluster.start();
  const auto reports = cluster.wait_all();
  EXPECT_FALSE(reports[bad].done);
  EXPECT_EQ(sink.load(), expected_sum(10));
}

TEST(LiveCluster, InputValidation) {
  EXPECT_THROW(LiveCluster(0, no_types), Error);
  LiveCluster cluster(2, no_types);
  EXPECT_THROW(cluster.submit([](mig::MigContext&) {}, 9), Error);
  const int job = cluster.submit([](mig::MigContext&) {}, 0);
  EXPECT_THROW(cluster.migrate(job, 7), Error);
  EXPECT_THROW(cluster.migrate(42, 1), Error);
  cluster.start();
  cluster.wait_all();
}

}  // namespace
}  // namespace hpm::sched
