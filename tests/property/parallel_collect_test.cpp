// Property-based determinism of parallel collection: for random heap
// graphs (including heavily shared ones) rooted in several variables, the
// stream produced by msrm::collect_roots at 2 and 4 worker threads must
// be BIT-IDENTICAL to the serial stream.
// Shared subgraphs are the hard case — the CAS-min ownership pass must
// assign every block to the first root that reaches it, exactly like the
// serial duplicate guard.
#include <gtest/gtest.h>

#include "apps/workload.hpp"
#include "msrm/collect.hpp"
#include "msrm/par_collect.hpp"
#include "obs/metrics.hpp"

namespace hpm {
namespace {

using apps::GraphShape;
using apps::RandNode;
using msr::Address;

struct Params {
  std::uint64_t seed;
  std::uint32_t nodes;
  double density;
  double share;
};

class ParallelCollectProperty : public ::testing::TestWithParam<Params> {};

TEST_P(ParallelCollectProperty, StreamsBitIdenticalToSerial) {
  const Params p = GetParam();
  ti::TypeTable table;
  apps::workload_register_types(table);
  mig::MigContext ctx(table);

  // Four root variables into one shared graph: spread the entry points so
  // ownership actually partitions, and point two roots at the same node
  // so a whole root record degenerates to a PREF.
  RandNode*& r0 = ctx.global<RandNode*>("r0");
  RandNode*& r1 = ctx.global<RandNode*>("r1");
  RandNode*& r2 = ctx.global<RandNode*>("r2");
  RandNode*& r3 = ctx.global<RandNode*>("r3");
  GraphShape shape;
  shape.nodes = p.nodes;
  shape.edge_density = p.density;
  shape.share_bias = p.share;
  const auto nodes = apps::build_random_graph(ctx, p.seed, shape);
  r0 = nodes[0];
  r1 = nodes[nodes.size() / 3];
  r2 = nodes[(2 * nodes.size()) / 3];
  r3 = r0;  // duplicate entry point

  const std::vector<Address> roots = {
      reinterpret_cast<Address>(&r0), reinterpret_cast<Address>(&r1),
      reinterpret_cast<Address>(&r2), reinterpret_cast<Address>(&r3)};

  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  xdr::Encoder serial_enc;
  msrm::collect_roots(ctx.space(), serial_enc, roots, 1);
  const obs::MetricsSnapshot serial_delta =
      obs::Registry::process().snapshot().delta_since(before);
  const Bytes serial = serial_enc.take();

  for (const unsigned threads : {2u, 4u}) {
    const obs::MetricsSnapshot par_before = obs::Registry::process().snapshot();
    xdr::Encoder par_enc;
    msrm::collect_roots(ctx.space(), par_enc, roots, threads);
    const obs::MetricsSnapshot par_delta =
        obs::Registry::process().snapshot().delta_since(par_before);
    const Bytes parallel = par_enc.take();
    ASSERT_EQ(serial.size(), parallel.size()) << "threads=" << threads;
    ASSERT_EQ(serial, parallel) << "threads=" << threads;
    // Identical traversal shape, not just identical bytes.
    EXPECT_EQ(serial_delta.counter("msrm.collect.blocks_saved"),
              par_delta.counter("msrm.collect.blocks_saved"));
    EXPECT_EQ(serial_delta.counter("msrm.collect.refs_saved"),
              par_delta.counter("msrm.collect.refs_saved"));
    EXPECT_EQ(serial_delta.counter("msrm.collect.nulls_saved"),
              par_delta.counter("msrm.collect.nulls_saved"));
    EXPECT_EQ(serial_delta.counter("msrm.collect.prim_leaves"),
              par_delta.counter("msrm.collect.prim_leaves"));
    EXPECT_EQ(par_delta.counter("msrm.collect.par.runs"), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelCollectProperty,
    ::testing::Values(
        Params{3, 64, 0.3, 0.0},
        Params{5, 500, 0.8, 0.5},
        Params{7, 500, 0.8, 0.5},
        Params{11, 2000, 0.9, 0.9},
        Params{13, 2000, 0.2, 0.95},
        Params{17, 1, 0.0, 0.0}));

TEST(ParallelCollect, SingleRootFallsBackToSerial) {
  ti::TypeTable table;
  apps::workload_register_types(table);
  mig::MigContext ctx(table);
  RandNode*& root = ctx.global<RandNode*>("root");
  GraphShape shape;
  shape.nodes = 50;
  const auto nodes = apps::build_random_graph(ctx, 21, shape);
  root = nodes[0];
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  xdr::Encoder enc;
  msrm::collect_roots(ctx.space(), enc, {reinterpret_cast<Address>(&root)}, 8);
  // One root cannot be partitioned: the serial path runs, no par metrics.
  EXPECT_EQ(obs::Registry::process().snapshot().delta_since(before).counter(
                "msrm.collect.par.runs"),
            0u);
  EXPECT_GT(enc.bytes().size(), 0u);
}

TEST(ParallelCollect, InvalidRootThrowsAtItsRank) {
  ti::TypeTable table;
  apps::workload_register_types(table);
  mig::MigContext ctx(table);
  RandNode*& r0 = ctx.global<RandNode*>("r0");
  RandNode*& r1 = ctx.global<RandNode*>("r1");
  GraphShape shape;
  shape.nodes = 40;
  const auto nodes = apps::build_random_graph(ctx, 31, shape);
  r0 = nodes[0];
  r1 = nodes[1];
  const std::vector<Address> roots = {reinterpret_cast<Address>(&r0), Address{0x10},
                                      reinterpret_cast<Address>(&r1)};
  xdr::Encoder serial_enc;
  EXPECT_THROW(msrm::collect_roots(ctx.space(), serial_enc, roots, 1), MsrError);
  xdr::Encoder par_enc;
  EXPECT_THROW(msrm::collect_roots(ctx.space(), par_enc, roots, 4), MsrError);
  // The prefix merged before the failing rank matches the serial prefix.
  const Bytes& s = serial_enc.bytes();
  const Bytes& q = par_enc.bytes();
  ASSERT_EQ(s.size(), q.size());
  EXPECT_EQ(s, q);
}

}  // namespace
}  // namespace hpm
