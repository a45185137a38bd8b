// Regenerates the §4.1 heterogeneity experiment: migrate each test
// program's state DEC 5000/120 (Ultrix, little-endian ILP32) ->
// SPARCstation 20 (Solaris, big-endian ILP32) and verify that
//   (1) the process state moves across platforms,
//   (2) all data structures are consistent before and after,
//   (3) no memory block or pointer is duplicated, and
//   (4) high-order floating-point accuracy is preserved (bit-exact).
//
// Substitution: the two machines are byte-exact ForeignImage memory
// spaces; the native host plays the role of the wire's endpoints.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "apps/workload.hpp"
#include "emit.hpp"
#include "hpm/migrate.hpp"
#include "memimg/image_space.hpp"

using namespace hpm;

namespace {

int checks_failed = 0;

void check(const char* what, bool ok) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++checks_failed;
}

/// DEC -> SPARC -> host round trip of one collected variable stream. Raw
/// flat bodies carry source-layout bytes, so every Restorer is told which
/// architecture produced its stream (the coordinator reads this from the
/// stream header; these image hops splice streams without headers).
Bytes through_dec_and_sparc(const ti::TypeTable& table, const Bytes& stream,
                            std::uint64_t* image_blocks) {
  memimg::ImageSpace dec(table, xdr::dec5000_ultrix());
  xdr::Decoder d1(stream);
  msrm::Restorer r1(dec, d1, xdr::native_arch());
  r1.set_auto_bind(true);
  const msr::BlockId dec_root = r1.restore_variable();

  xdr::Encoder e2;
  msrm::Collector c2(dec, e2);
  c2.save_variable(dec.msrlt().find_id(dec_root)->base);

  memimg::ImageSpace sparc(table, xdr::sparc20_solaris());
  xdr::Decoder d2(e2.bytes());
  msrm::Restorer r2(sparc, d2, xdr::dec5000_ultrix());
  r2.set_auto_bind(true);
  const msr::BlockId sparc_root = r2.restore_variable();
  *image_blocks = sparc.msrlt().block_count();

  xdr::Encoder e3;
  msrm::Collector c3(sparc, e3);
  c3.save_variable(sparc.msrlt().find_id(sparc_root)->base);
  return e3.take();
}

void pointer_structures_experiment() {
  std::printf("test_pointer-style structures (DEC -> SPARC):\n");
  ti::TypeTable table;
  apps::workload_register_types(table);
  mig::MigContext src(table);
  apps::RandNode*& root = src.global<apps::RandNode*>("root");
  apps::GraphShape shape;
  shape.nodes = 500;
  shape.edge_density = 0.7;
  shape.share_bias = 0.6;
  const auto nodes = apps::build_random_graph(src, 11, shape);
  root = nodes[0];
  const std::uint64_t fp = apps::graph_fingerprint(root);

  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  xdr::Encoder enc;
  msrm::Collector collector(src.space(), enc);
  collector.save_variable(reinterpret_cast<msr::Address>(&root));
  const obs::MetricsSnapshot collected =
      obs::Registry::process().snapshot().delta_since(before);
  std::uint64_t image_blocks = 0;
  const Bytes back = through_dec_and_sparc(table, enc.bytes(), &image_blocks);

  msr::HostSpace host2(table);
  xdr::Decoder dec(back);
  msrm::Restorer restorer(host2, dec, xdr::sparc20_solaris());
  restorer.set_auto_bind(true);
  const msr::BlockId out = restorer.restore_variable();
  auto* root2 = *reinterpret_cast<apps::RandNode**>(host2.msrlt().find_id(out)->base);

  check("structures consistent across DEC->SPARC->host", apps::graph_fingerprint(root2) == fp);
  check("no block duplicated in the images",
        image_blocks == collected.counter("msrm.collect.blocks_saved"));
  check("shared references preserved as references",
        collected.counter("msrm.collect.refs_saved") > 0);
}

void linpack_data_experiment() {
  std::printf("linpack-style floating-point data (DEC -> SPARC):\n");
  ti::TypeTable table;
  msr::HostSpace host(table);
  // Exercise the full dynamic range the solver produces, plus edge cases.
  std::vector<double> a(20000);
  Rng rng(3);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = (rng.next_double() - 0.5) * std::pow(10.0, rng.next_int(-300, 300));
  }
  a[0] = 0.0;
  a[1] = -0.0;
  a[2] = std::numeric_limits<double>::denorm_min();
  a[3] = std::numeric_limits<double>::max();
  a[4] = -std::numeric_limits<double>::min();
  double* pa = a.data();
  host.track_raw(msr::Segment::Heap, a.data(), table.primitive(xdr::PrimKind::Double),
                 static_cast<std::uint32_t>(a.size()), "a");
  host.track(msr::Segment::Global, pa, "pa", ti::native_type_id<double*>(table), 1);

  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  xdr::Encoder enc;
  msrm::Collector collector(host, enc);
  collector.save_variable(reinterpret_cast<msr::Address>(&pa));
  const obs::MetricsSnapshot collected =
      obs::Registry::process().snapshot().delta_since(before);
  std::uint64_t image_blocks = 0;
  const Bytes back = through_dec_and_sparc(table, enc.bytes(), &image_blocks);

  msr::HostSpace host2(table);
  xdr::Decoder dec(back);
  msrm::Restorer restorer(host2, dec, xdr::sparc20_solaris());
  restorer.set_auto_bind(true);
  const msr::BlockId out = restorer.restore_variable();
  const double* b = *reinterpret_cast<double* const*>(host2.msrlt().find_id(out)->base);
  bool bit_exact = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      bit_exact = false;
      break;
    }
  }
  check("floating-point data bit-exact after two conversions", bit_exact);
  check("no block duplicated", image_blocks == collected.counter("msrm.collect.blocks_saved"));
}

void narrowing_detection_experiment() {
  std::printf("width-narrowing detection (LP64 host -> ILP32 image):\n");
  ti::TypeTable table;
  msr::HostSpace host(table);
  long fits = 2147483647L;
  host.track(msr::Segment::Global, fits, "fits", table.primitive(xdr::PrimKind::Long), 1);
  xdr::Encoder enc;
  msrm::Collector collector(host, enc);
  collector.save_variable(reinterpret_cast<msr::Address>(&fits));
  memimg::ImageSpace sparc(table, xdr::sparc20_solaris());
  xdr::Decoder dec(enc.bytes());
  msrm::Restorer restorer(sparc, dec, xdr::native_arch());
  restorer.set_auto_bind(true);
  bool ok = true;
  try {
    restorer.restore_variable();
  } catch (const Error&) {
    ok = false;
  }
  check("INT_MAX-valued long narrows losslessly to ILP32", ok);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  std::printf("Section 4.1 heterogeneity experiments (simulated DEC Ultrix / SPARC "
              "Solaris memory images)\n\n");
  pointer_structures_experiment();
  linpack_data_experiment();
  narrowing_detection_experiment();
  std::printf("\n%s\n", checks_failed == 0 ? "ALL HETEROGENEITY CHECKS PASSED"
                                           : "SOME CHECKS FAILED");
  bench::BenchReport report("heterogeneity", args.smoke);
  report.add("checks_failed", checks_failed, "count");
  if (!report.write_if_requested(args)) return 1;
  return checks_failed == 0 ? 0 : 1;
}
