// Regenerates Table 1: "Timing results (in seconds)" — process migration
// time split into Collect / Tx / Restore for the linpack 1000x1000
// benchmark and the bitonic sort program, on a 100 Mb/s Ethernet
// (modeled; the paper measured two Ultra 5 workstations).
//
// Paper reference values:
//   Linpack 1000x1000:  Collect .846   Tx .797   Restore .712
//   bitonic (100k):     Collect .446   Tx .269   Restore .501
//
// Absolute numbers differ on modern hardware (the paper's Ultra 5 is a
// ~270 MHz machine); the shape to check is (a) both phases are the same
// order of magnitude as Tx, (b) linpack's time is dominated by data
// volume while bitonic's is dominated by block count, and (c) for
// bitonic, Collect > Restore (the MSRLT search term).
//
// A second section runs the transaction end-to-end with overlap off and
// on (run_migration with a throttled 100 Mb/s link) over the in-memory
// and TCP-loopback transports: the overlapped wall time must not exceed
// the collect-first one, since Collect / Tx / Restore overlap. The rows
// keep their historical names: pipeline.<t>.serial_wall_seconds is the
// overlap-off run.
//
// A third section pairs serial and parallel collection on a many-rooted
// forest workload: one thread against collect_threads=4 over the same
// MSRLT. The two streams are asserted bit-identical in-bench, and the
// emitted `msrlt.search_steps_per_search` / `parcollect.*` rows feed the
// perf_guard ctest fixture.
//
// A fourth section runs the content-addressed dedup'd transfer
// (DESIGN.md §15) over the same linpack state: plain baseline, cold-cache
// dedup run, then an identical warm rerun that must move < 5% of the
// stream's bytes. All three digests are asserted equal in-bench, and the
// `dedup.*` rows land both here and in a focused BENCH_dedup.json beside
// the main report for the perf_guard / schema-check fixtures.
//
// Writes BENCH_migration.json (hpm-bench-v1; override with --json PATH).
// --smoke shrinks the problems to one cheap iteration each.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/bitonic.hpp"
#include "apps/linpack.hpp"
#include "apps/workload.hpp"
#include "emit.hpp"
#include "hpm/migrate.hpp"
#include "msrm/par_collect.hpp"
#include "obs/metrics.hpp"
#include "support.hpp"

using namespace hpm;

namespace {

struct TransferRun {
  double wall_seconds = 0;
  double overlap_ratio = 0;
  std::uint64_t bytes = 0;
};

// One end-to-end run_migration over a real channel with the link model
// actually throttling the sends; stop_after_restore keeps the program
// tail out of the measurement.
TransferRun run_transfer(int linpack_n, mig::Transport transport, bool pipeline) {
  apps::LinpackResult result;
  mig::RunOptions options;
  options.register_types = apps::linpack_register_types;
  options.program = [&result, linpack_n](mig::MigContext& ctx) {
    apps::linpack_program(ctx, linpack_n, 1, &result);
  };
  options.migrate_at_poll = 1;
  options.transport = transport;
  options.link = net::SimulatedLink::ethernet_100mbps();
  options.throttle = true;
  options.pipeline = pipeline;
  options.stop_after_restore = true;
  const auto t0 = std::chrono::steady_clock::now();
  const mig::MigrationReport report = mig::run_migration(options);
  const auto t1 = std::chrono::steady_clock::now();
  TransferRun r;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.overlap_ratio = report.overlap_ratio;
  r.bytes = report.stream_bytes;
  if (!report.migrated) std::fprintf(stderr, "run_transfer: migration did not happen\n");
  return r;
}

// One end-to-end migration of the same linpack state with the
// content-addressed chunk cache engaged (or plain when `cache_dir` is
// empty). Memory transport, unthrottled: the interesting numbers here are
// bytes moved and the end-to-end stream digest, not seconds.
struct DedupRun {
  std::uint64_t stream_bytes = 0;
  std::uint64_t wire_bytes = 0;  ///< manifest + StateChunk + StateEnd payload bytes sent
  std::uint64_t manifest_chunks = 0;
  std::uint64_t hit_chunks = 0;
  std::uint64_t miss_chunks = 0;
  std::uint64_t digest = 0;
  bool migrated = false;
};

DedupRun run_dedup(int linpack_n, const std::string& cache_dir) {
  apps::LinpackResult result;
  mig::RunOptions options;
  options.register_types = apps::linpack_register_types;
  options.program = [&result, linpack_n](mig::MigContext& ctx) {
    apps::linpack_program(ctx, linpack_n, 1, &result);
  };
  options.migrate_at_poll = 1;
  options.transport = mig::Transport::Memory;
  options.pipeline = true;
  options.stop_after_restore = true;
  if (!cache_dir.empty()) {
    options.chunk_cache_dir = cache_dir;
    options.wire_codec = mig::WireCodec::VarintDelta;
  }
  const mig::MigrationReport report = mig::run_migration(options);
  DedupRun r;
  r.stream_bytes = report.stream_bytes;
  r.wire_bytes = report.dedup_wire_bytes;
  r.manifest_chunks = report.dedup_manifest_chunks;
  r.hit_chunks = report.dedup_hit_chunks;
  r.miss_chunks = report.dedup_miss_chunks;
  r.digest = report.stream_digest;
  r.migrated = report.migrated;
  if (!report.migrated) std::fprintf(stderr, "run_dedup: migration did not happen\n");
  return r;
}

// A forest of disjoint random subgraphs, one root variable per tree, on
// one migratable heap. Disjoint trees make the CAS-min ownership pass
// partition evenly, so the worker threads have real independent work —
// a connected graph would hand every block to rank 0.
struct Forest {
  ti::TypeTable types;
  std::unique_ptr<mig::MigContext> ctx;
  std::vector<msr::Address> roots;
};

std::unique_ptr<Forest> build_forest(unsigned trees, std::uint32_t nodes_per_tree) {
  auto f = std::make_unique<Forest>();
  apps::workload_register_types(f->types);
  f->ctx = std::make_unique<mig::MigContext>(f->types);
  apps::GraphShape shape;
  shape.nodes = nodes_per_tree;
  shape.edge_density = 0.8;
  shape.share_bias = 0.5;
  for (unsigned t = 0; t < trees; ++t) {
    const std::string name = "tree" + std::to_string(t);
    apps::RandNode*& root = f->ctx->global<apps::RandNode*>(name.c_str());
    root = apps::build_random_graph(*f->ctx, 100 + t, shape)[0];
    f->roots.push_back(reinterpret_cast<msr::Address>(&root));
  }
  return f;
}

/// Best-of-`repeats` wall time for one collection pass; the last pass's
/// stream is returned through `out` when non-null.
double time_collect(Forest& f, unsigned threads, int repeats, Bytes* out = nullptr) {
  double best = 0;
  for (int r = 0; r < repeats; ++r) {
    xdr::Encoder enc(1 << 20);
    const auto t0 = std::chrono::steady_clock::now();
    msrm::collect_roots(f.ctx->space(), enc, f.roots, threads);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    best = (r == 0) ? s : std::min(best, s);
    if (out != nullptr && r == repeats - 1) *out = enc.take();
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_bench_args(argc, argv, "BENCH_migration.json");
  // Repeats give the trace.* histograms real percentile spread; smoke
  // mode runs each program once on a small instance.
  const int repeats = args.smoke ? 1 : 3;
  const int linpack_n = args.smoke ? 200 : 1000;
  const int bitonic_log2n = args.smoke ? 12 : 17;

  bench::BenchReport report("table1_migration", args.smoke);

  std::printf("Table 1: migration time split (seconds), 100 Mb/s Ethernet model\n");
  std::printf("%-22s %10s %10s %10s %12s %10s\n", "Program", "Collect", "Tx", "Restore",
              "Bytes", "Blocks");

  double linpack_collect = 0;
  double linpack_restore = 0;
  {
    bench::Measurement m;
    for (int r = 0; r < repeats; ++r) {
      apps::LinpackResult result;
      m = bench::measure_migration(
          apps::linpack_register_types,
          [&result, linpack_n](mig::MigContext& ctx) {
            apps::linpack_program(ctx, linpack_n, 1, &result);
          },
          /*at_poll=*/1);
    }
    std::printf("%-22s %10.4f %10.4f %10.4f %12llu %10llu\n", "Linpack 1000x1000",
                m.collect_s, m.tx_100mbps, m.restore_s,
                static_cast<unsigned long long>(m.bytes),
                static_cast<unsigned long long>(
                    m.collect.counter("msrm.collect.blocks_saved")));
    std::printf("%-22s %10.3f %10.3f %10.3f   (Ultra 5, measured)\n",
                "  paper reference", 0.846, 0.797, 0.712);
    linpack_collect = m.collect_s;
    linpack_restore = m.restore_s;
    report.add("linpack.collect_seconds", m.collect_s, "seconds");
    report.add("linpack.tx_seconds_100mbps", m.tx_100mbps, "seconds");
    report.add("linpack.restore_seconds", m.restore_s, "seconds");
    report.add("linpack.stream_bytes", static_cast<double>(m.bytes), "bytes");
  }

  {
    bench::Measurement m;
    for (int r = 0; r < repeats; ++r) {
      apps::BitonicResult result;
      m = bench::measure_migration(
          apps::bitonic_register_types,
          [&result, bitonic_log2n](mig::MigContext& ctx) {
            apps::bitonic_program(ctx, bitonic_log2n, 9, &result);
          },
          /*at_poll=*/1);
    }
    std::printf("%-22s %10.4f %10.4f %10.4f %12llu %10llu\n", "bitonic (131072)",
                m.collect_s, m.tx_100mbps, m.restore_s,
                static_cast<unsigned long long>(m.bytes),
                static_cast<unsigned long long>(
                    m.collect.counter("msrm.collect.blocks_saved")));
    std::printf("%-22s %10.3f %10.3f %10.3f   (Ultra 5, measured)\n",
                "  paper reference", 0.446, 0.269, 0.501);
    std::printf("\nshape checks (paper's Table 1 orderings):\n");
    std::printf("  linpack Collect > Restore (as in .846 > .712): %s (%.4f vs %.4f)\n",
                linpack_collect > linpack_restore ? "yes" : "NO", linpack_collect,
                linpack_restore);
    std::printf("  bitonic Restore > Collect (allocation-heavy restore, as in .501 > .446): "
                "%s (%.4f vs %.4f)\n",
                m.restore_s > m.collect_s ? "yes" : "NO", m.restore_s, m.collect_s);
    report.add("bitonic.collect_seconds", m.collect_s, "seconds");
    report.add("bitonic.tx_seconds_100mbps", m.tx_100mbps, "seconds");
    report.add("bitonic.restore_seconds", m.restore_s, "seconds");
    report.add("bitonic.stream_bytes", static_cast<double>(m.bytes), "bytes");
  }

  // --- overlap off vs on, throttled 100 Mb/s link -------------------------
  // The same large-heap linpack state moved end-to-end both ways over each
  // duplex transport; overlapping Collect / Tx / Restore must bring the
  // wall time in at or under the collect-first run.
  {
    const int n = args.smoke ? 200 : 800;
    std::printf("\noverlap off vs on (linpack %dx%d, throttled 100 Mb/s):\n", n, n);
    std::printf("%-10s %12s %12s %9s %9s\n", "Transport", "Off s", "On s", "Speedup",
                "Overlap");
    const struct {
      mig::Transport transport;
      const char* name;
    } kTransports[] = {{mig::Transport::Memory, "mem"}, {mig::Transport::Socket, "socket"}};
    for (const auto& t : kTransports) {
      const TransferRun off = run_transfer(n, t.transport, /*pipeline=*/false);
      const TransferRun on = run_transfer(n, t.transport, /*pipeline=*/true);
      const double speedup = on.wall_seconds > 0 ? off.wall_seconds / on.wall_seconds : 0;
      std::printf("%-10s %12.4f %12.4f %8.2fx %8.1f%%\n", t.name, off.wall_seconds,
                  on.wall_seconds, speedup, on.overlap_ratio * 100);
      const std::string prefix = std::string("pipeline.") + t.name;
      report.add(prefix + ".serial_wall_seconds", off.wall_seconds, "seconds");
      report.add(prefix + ".pipelined_wall_seconds", on.wall_seconds, "seconds");
      report.add(prefix + ".speedup", speedup, "ratio");
      report.add(prefix + ".overlap_ratio", on.overlap_ratio, "ratio");
    }
  }

  // --- serial vs parallel collection ------------------------------------
  // An 8-tree forest collected with one thread and with four collection
  // workers. The two streams must be bit-identical — parallelism is a
  // pure latency optimization, never a wire-format change.
  {
    const unsigned kTrees = 8;
    const unsigned kThreads = 4;
    const std::uint32_t per_tree = args.smoke ? 1500 : 16000;
    auto forest = build_forest(kTrees, per_tree);

    Bytes serial_bytes;
    const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
    const double serial_s = time_collect(*forest, 1, repeats, &serial_bytes);
    const obs::MetricsSnapshot delta =
        obs::Registry::process().snapshot().delta_since(before);
    Bytes par_bytes;
    const double par_s = time_collect(*forest, kThreads, repeats, &par_bytes);

    const bool identical = serial_bytes == par_bytes;
    const double thread_speedup = par_s > 0 ? serial_s / par_s : 0;
    const double searches = static_cast<double>(delta.counter("msr.msrlt.searches"));
    const double steps = static_cast<double>(delta.counter("msr.msrlt.search_steps"));

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("\nparallel collection (%u trees x %u nodes, %u threads, %u hw threads):\n",
                kTrees, per_tree, kThreads, hw);
    std::printf("  serial      %.4fs\n", serial_s);
    std::printf("  %u threads   %.4fs  (%.2fx)\n", kThreads, par_s, thread_speedup);
    if (hw < kThreads) {
      std::printf("  (only %u hardware thread%s — the workers time-slice, so the parallel\n"
                  "   path pays its second traversal with no concurrency to buy it back;\n"
                  "   speedup needs >= %u cores)\n",
                  hw, hw == 1 ? "" : "s", kThreads);
    }
    std::printf("  streams bit-identical: %s\n", identical ? "yes" : "NO");
    if (!identical) {
      std::fprintf(stderr, "table1_migration: parallel stream diverged from serial\n");
      return 1;
    }

    report.add("parcollect.serial_seconds", serial_s, "seconds");
    report.add("parcollect.par_seconds", par_s, "seconds");
    report.add("parcollect.thread_speedup", thread_speedup, "ratio");
    report.add("parcollect.bit_identical", identical ? 1 : 0, "bool");
    report.add("parcollect.hardware_threads", hw, "count");
    report.add_ratio("msrlt.search_steps_per_search", steps, searches, "steps");
  }

  // --- content-addressed dedup: the second migration is (almost) free ----
  // The same linpack state moved three times: plain (no cache) as the
  // bit-identical baseline, then dedup'd against a cold cache, then
  // dedup'd again with the cache warm. The identical rerun must be
  // answered almost entirely from the destination's chunk store — the
  // perf_guard fixture gates the second run at < 5% of the stream's
  // bytes — and all three runs must agree on the end-to-end digest.
  {
    const int n = args.smoke ? 200 : 800;
    const std::string cache_dir =
        (std::filesystem::temp_directory_path() /
         ("hpm_bench_dedup_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(cache_dir);

    const DedupRun plain = run_dedup(n, "");
    const DedupRun cold = run_dedup(n, cache_dir);
    const DedupRun warm = run_dedup(n, cache_dir);
    std::filesystem::remove_all(cache_dir);

    const bool identical = plain.migrated && cold.migrated && warm.migrated &&
                           plain.digest == cold.digest && plain.digest == warm.digest;
    const double ratio = warm.stream_bytes > 0
                             ? static_cast<double>(warm.wire_bytes) /
                                   static_cast<double>(warm.stream_bytes)
                             : 1.0;

    std::printf("\ndedup'd transfer (linpack %dx%d, content-addressed chunk cache):\n", n, n);
    std::printf("  first run   %llu stream bytes, %llu on the wire (%llu/%llu chunks missed)\n",
                static_cast<unsigned long long>(cold.stream_bytes),
                static_cast<unsigned long long>(cold.wire_bytes),
                static_cast<unsigned long long>(cold.miss_chunks),
                static_cast<unsigned long long>(cold.manifest_chunks));
    std::printf("  second run  %llu stream bytes, %llu on the wire — %.2f%% (%llu/%llu hits)\n",
                static_cast<unsigned long long>(warm.stream_bytes),
                static_cast<unsigned long long>(warm.wire_bytes), ratio * 100,
                static_cast<unsigned long long>(warm.hit_chunks),
                static_cast<unsigned long long>(warm.manifest_chunks));
    std::printf("  restored streams bit-identical to plain: %s\n", identical ? "yes" : "NO");
    if (!identical) {
      std::fprintf(stderr, "table1_migration: dedup'd stream diverged from plain migration\n");
      return 1;
    }
    if (ratio >= 0.05) {
      std::fprintf(stderr,
                   "table1_migration: identical rerun moved %.2f%% of the stream (>= 5%%)\n",
                   ratio * 100);
      return 1;
    }

    bench::BenchReport dedup_report("dedup", args.smoke);
    for (bench::BenchReport* r : {&report, &dedup_report}) {
      r->add("dedup.first_run.stream_bytes", static_cast<double>(cold.stream_bytes), "bytes");
      r->add("dedup.first_run.wire_bytes", static_cast<double>(cold.wire_bytes), "bytes");
      r->add("dedup.second_run.wire_bytes", static_cast<double>(warm.wire_bytes), "bytes");
      r->add("dedup.second_run.bytes_ratio", ratio, "ratio");
      r->add("dedup.second_run.hit_chunks", static_cast<double>(warm.hit_chunks), "count");
      r->add("dedup.second_run.manifest_chunks", static_cast<double>(warm.manifest_chunks),
             "count");
      r->add("dedup.bit_identical", identical ? 1 : 0, "bool");
    }
    // The focused report lands beside the main JSON so the bench-smoke
    // fixture can schema-check BENCH_dedup.json on its own.
    if (!args.json_path.empty()) {
      const std::string dedup_path =
          std::filesystem::path(args.json_path).replace_filename("BENCH_dedup.json").string();
      if (!dedup_report.write(dedup_path)) return 1;
    }
  }

  // --- destination failover: a warm standby re-receives (almost) nothing --
  // The same linpack state, but the primary destination is killed
  // mid-stream and the migration fails over to a standby whose chunk
  // store was warmed by an earlier run of the identical state. The replay
  // negotiates the manifest against that store, so the standby should
  // answer nearly every chunk locally: perf_guard gates
  // `failover.warm_standby.bytes_ratio` at < 5% of the stream, the same
  // ceiling as the dedup rerun.
  {
    const int n = args.smoke ? 200 : 800;
    const std::string standby_dir =
        (std::filesystem::temp_directory_path() /
         ("hpm_bench_failover_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(standby_dir);

    // Warm the standby's store with one clean dedup'd run of the state.
    const DedupRun warm_up = run_dedup(n, standby_dir);

    apps::LinpackResult result;
    mig::RunOptions options;
    options.register_types = apps::linpack_register_types;
    options.program = [&result, n](mig::MigContext& ctx) {
      apps::linpack_program(ctx, n, 1, &result);
    };
    options.migrate_at_poll = 1;
    options.transport = mig::Transport::Memory;
    options.pipeline = true;
    options.stop_after_restore = true;
    options.max_retries = 0;
    // Per-chunk ack cadence (chunk size stays the store's 64 KiB so the
    // warm-up's addresses match) — "after 2 dest frames" (its Hello + the
    // first StateAck) is then provably mid-stream.
    options.ack_every_chunks = 1;
    options.dest_fault_plan = net::FaultPlan::kill_after(2);
    options.failover.standbys = {{.name = "warm-standby", .chunk_cache_dir = standby_dir}};
    const mig::MigrationReport fo = mig::run_migration(options);
    std::filesystem::remove_all(standby_dir);

    const bool identical =
        warm_up.migrated && fo.migrated && fo.failovers == 1 &&
        fo.stream_digest == warm_up.digest;
    const double ratio = fo.stream_bytes > 0
                             ? static_cast<double>(fo.dedup_wire_bytes) /
                                   static_cast<double>(fo.stream_bytes)
                             : 1.0;

    std::printf("\ndestination failover (linpack %dx%d, primary killed mid-stream):\n", n, n);
    std::printf("  replay to warm standby  %llu stream bytes, %llu on the wire — %.2f%%\n",
                static_cast<unsigned long long>(fo.stream_bytes),
                static_cast<unsigned long long>(fo.dedup_wire_bytes), ratio * 100);
    std::printf("  downtime %.4fs, restored stream identical to warm-up: %s\n",
                fo.failover_downtime_seconds, identical ? "yes" : "NO");
    if (!identical) {
      std::fprintf(stderr, "table1_migration: failed-over restore diverged (or no failover)\n");
      return 1;
    }
    if (ratio >= 0.05) {
      std::fprintf(stderr,
                   "table1_migration: warm standby re-received %.2f%% of the stream (>= 5%%)\n",
                   ratio * 100);
      return 1;
    }
    report.add("failover.warm_standby.bytes_ratio", ratio, "ratio");
    report.add("failover.warm_standby.wire_bytes",
               static_cast<double>(fo.dedup_wire_bytes), "bytes");
    report.add("failover.downtime_seconds", fo.failover_downtime_seconds, "seconds");
    report.add("failover.bit_identical", identical ? 1 : 0, "bool");
  }

  // Per-phase latency percentiles over all measured migrations, straight
  // from the span-fed registry histograms.
  report.add_percentiles("trace.mig.collect");
  report.add_percentiles("trace.mig.restore");
  return report.write(args.json_path) ? 0 : 1;
}
