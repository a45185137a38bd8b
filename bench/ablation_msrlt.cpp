// Ablation: the MSRLT's ordered address search against a linear scan.
//
// The paper's O(n log n) collection term assumes an efficient
// address->block search (§4.2). This ablation builds a random graph
// (16k nodes, edge density 0.8, share bias 0.5) on a migratable heap and
// takes every non-null pointer leaf as a probe, then resolves the probes
// two ways over the same blocks:
//  * `msrlt` — Msrlt::find_containing: the set-associative lookup cache
//    in front of the ordered address map, exactly as collection searches;
//  * `linear_scan` — a bench-local scan over a copy of the tracked
//    intervals in base order until one contains the probe (one step per interval examined):
//    what the search degrades to without an ordered structure.
// Each side reports steps/search and ns/probe, and `linear_over_msrlt.*`
// rows give their ratios, so the data-structure choice is one JSON row,
// not a division exercise.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/workload.hpp"
#include "emit.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace hpm;

struct Graph {
  ti::TypeTable types;
  std::unique_ptr<mig::MigContext> ctx;
  std::vector<msr::Address> probes;  ///< every non-null out[] pointer
};

std::unique_ptr<Graph> build_graph(std::uint32_t nodes) {
  auto g = std::make_unique<Graph>();
  apps::workload_register_types(g->types);
  g->ctx = std::make_unique<mig::MigContext>(g->types);
  apps::GraphShape shape;
  shape.nodes = nodes;
  shape.edge_density = 0.8;
  shape.share_bias = 0.5;
  for (const apps::RandNode* node : apps::build_random_graph(*g->ctx, 7, shape)) {
    for (const apps::RandNode* target : node->out) {
      if (target != nullptr) g->probes.push_back(reinterpret_cast<msr::Address>(target));
    }
  }
  return g;
}

/// Resolve every probe through the MSRLT; returns the number found.
std::size_t search_msrlt(const msr::Msrlt& table, const std::vector<msr::Address>& probes) {
  std::size_t found = 0;
  for (const msr::Address addr : probes) found += table.find_containing(addr) != nullptr;
  return found;
}

struct Interval {
  msr::Address base;
  std::uint64_t size;
};

/// The MSRLT's tracked ranges, in ascending base order.
std::vector<Interval> intervals_of(const msr::Msrlt& table) {
  std::vector<Interval> out;
  out.reserve(table.block_count());
  table.for_each_block([&out](const msr::MemoryBlock& b) { out.push_back({b.base, b.size}); });
  return out;
}

/// Resolve every probe by scanning the intervals in base order; adds one
/// step per interval examined. Returns the number found.
std::size_t search_linear(const std::vector<Interval>& intervals,
                          const std::vector<msr::Address>& probes, std::uint64_t& steps) {
  std::size_t found = 0;
  for (const msr::Address addr : probes) {
    for (const Interval& iv : intervals) {
      ++steps;
      if (addr - iv.base < iv.size) {
        ++found;
        break;
      }
    }
  }
  return found;
}

void BM_search_msrlt(benchmark::State& state) {
  const auto g = build_graph(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(search_msrlt(g->ctx->space().msrlt(), g->probes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * g->probes.size()));
}
BENCHMARK(BM_search_msrlt)->Arg(1000)->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);

void BM_search_linear_scan(benchmark::State& state) {
  const auto g = build_graph(static_cast<std::uint32_t>(state.range(0)));
  const std::vector<Interval> intervals = intervals_of(g->ctx->space().msrlt());
  for (auto _ : state) {
    std::uint64_t steps = 0;
    benchmark::DoNotOptimize(search_linear(intervals, g->probes, steps));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * g->probes.size()));
}
BENCHMARK(BM_search_linear_scan)->Arg(1000)->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);

/// Best wall time of `repeats` calls of `pass`, in seconds.
template <typename Fn>
double best_seconds(int repeats, Fn&& pass) {
  double best = 0;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    best = (r == 0) ? s : std::min(best, s);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const hpm::bench::BenchArgs args = hpm::bench::parse_bench_args(argc, argv);
  if (!args.smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  hpm::bench::BenchReport report("ablation_msrlt", args.smoke);
  const std::uint32_t nodes = args.smoke ? 1000 : 16000;
  const int repeats = args.smoke ? 1 : 5;
  const auto g = build_graph(nodes);
  const msr::Msrlt& table = g->ctx->space().msrlt();
  const std::vector<Interval> intervals = intervals_of(table);
  const double probes = static_cast<double>(g->probes.size());

  // Step counts come from the first pass of each side (the search is
  // deterministic; the MSRLT's cache starts cold, as in a collection);
  // ns/probe is the best of `repeats` passes.
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  const std::size_t msrlt_found = search_msrlt(table, g->probes);
  const obs::MetricsSnapshot delta = obs::Registry::process().snapshot().delta_since(before);
  const double searches = static_cast<double>(delta.counter("msr.msrlt.searches"));
  const double msrlt_steps = static_cast<double>(delta.counter("msr.msrlt.search_steps"));
  const double cache_hits = static_cast<double>(delta.counter("msr.msrlt.cache_hits"));
  const double msrlt_s = best_seconds(repeats, [&] { search_msrlt(table, g->probes); });

  std::uint64_t linear_steps = 0;
  const std::size_t linear_found = search_linear(intervals, g->probes, linear_steps);
  const double linear_s = best_seconds(repeats, [&] {
    std::uint64_t steps = 0;
    benchmark::DoNotOptimize(search_linear(intervals, g->probes, steps));
  });
  if (msrlt_found != g->probes.size() || linear_found != g->probes.size()) {
    std::fprintf(stderr, "ablation_msrlt: a probe missed its block\n");
    return 1;
  }

  const double msrlt_steps_per = searches > 0 ? msrlt_steps / searches : 0;
  const double linear_steps_per = probes > 0 ? static_cast<double>(linear_steps) / probes : 0;
  const double msrlt_ns = probes > 0 ? msrlt_s * 1e9 / probes : 0;
  const double linear_ns = probes > 0 ? linear_s * 1e9 / probes : 0;
  report.add("probes", probes, "count");
  report.add("msrlt.searches", searches, "count");
  report.add("msrlt.search_steps_per_search", msrlt_steps_per, "steps");
  report.add_ratio("msrlt.cache_hit_ratio", cache_hits, searches);
  report.add("msrlt.ns_per_probe", msrlt_ns, "ns");
  report.add("linear_scan.search_steps_per_search", linear_steps_per, "steps");
  report.add("linear_scan.ns_per_probe", linear_ns, "ns");
  report.add_ratio("linear_over_msrlt.steps_ratio", linear_steps_per, msrlt_steps_per);
  report.add_ratio("linear_over_msrlt.time_ratio", linear_ns, msrlt_ns);
  std::printf("%u blocks, %.0f probes\n", nodes, probes);
  std::printf("%-12s %8.2f steps/search %10.1f ns/probe  (%.1f%% cache hits)\n", "msrlt",
              msrlt_steps_per, msrlt_ns, searches > 0 ? cache_hits / searches * 100 : 0);
  std::printf("%-12s %8.2f steps/search %10.1f ns/probe\n", "linear_scan", linear_steps_per,
              linear_ns);
  std::printf("linear/msrlt %8.1fx steps        %10.1fx time\n",
              msrlt_steps_per > 0 ? linear_steps_per / msrlt_steps_per : 0,
              msrlt_ns > 0 ? linear_ns / msrlt_ns : 0);
  return report.write_if_requested(args) ? 0 : 1;
}
