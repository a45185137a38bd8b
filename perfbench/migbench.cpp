// Steady migration benchmark: repeated end-to-end migrations of one
// seeded program state, timed from the source's freezing poll-point to
// the destination's first post-restore instruction.
//
//   migbench --workload <linpack|bitonic|rerun|spool> --seed N --seconds S
//            --trace <0|1> --scratch DIR
//
// The migrated states are the paper's two Table 1 programs as
// bench/table1_migration runs them, frozen where that bench freezes them
// (the first poll-point, before any elimination or compare-exchange):
//   - linpack n=1000: the netlib-generated 1000x1000 matrix, the right-hand
//     side and its saved copy, and the pivot vector — four pointer-free
//     blocks, about 8 MB (apps::linpack_live_bytes(1000));
//   - bitonic 2^17 leaves: a perfect binary tree of apps::BitonicNode, one
//     heap block per node, 2^18 - 1 blocks (apps::bitonic_block_count(17)).
// Each migration rebuilds the state from the seed, freezes at the
// program's only poll-point, and runs hpm::run_migration. The program
// stamps the clock and the process CPU clock just before the poll on the
// source and just after it on the destination, so the freeze-to-resume
// window is measured from the program's own point of view. The
// destination checksums the restored state after every migration, the
// source once per run (outside the window); a migration counts as failed
// unless it migrated, the checksums agree, and — on paths that report
// one — the stream digest equals the first migration's (the state is
// identical every time).
//
// Workloads (closed loop, one migration at a time):
//   linpack  the linpack state, pipelined over the in-memory channel:
//            pointer-free bodies, the same-arch bulk fast path.
//   bitonic  the bitonic tree, pipelined in-memory: MSRLT search, PNEW
//            encoding, one block allocation per node on restore.
//   rerun    the linpack state against a destination chunk store filled in
//            set-up: manifest negotiation, every chunk a cache hit.
//   spool    the linpack state over the File transport: the spooled serial
//            transfer path.
//
// A run first migrates untimed for kWarmup. Set-up (repeated at least
// kMinSetupRounds times and for at least kMinSetup, median reported as
// setup_s) is a fresh scratch directory plus one complete migration into
// it, state build and verification included: for rerun that fills the
// chunk store, for the others it is one whole migration as a user would
// start it, so work moved out of the freeze-to-resume window still shows.
// The last round's scratch is used for the timed loop.
//
// With --trace 0 the last stdout line reports the end-to-end metrics
// (median downtime, median CPU time in the window, bytes sent as frames
// in both directions, set-up time); with --trace 1 it reports per-layer
// medians read from the library's own spans (mig.collect / mig.tx /
// mig.restore) and registry counters. The downtime p90 goes to stderr
// only: a bitonic run times about 35 migrations, so its p90 rests on
// three or four samples, too few to gate on.
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "apps/bitonic.hpp"
#include "apps/linpack.hpp"
#include "common/rng.hpp"
#include "hpm/migrate.hpp"
#include "mig/annotate.hpp"
#include "obs/span.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using hpm::apps::BitonicNode;
namespace fs = std::filesystem;

constexpr int kMinSetupRounds = 21;
constexpr std::chrono::seconds kMinSetup{3};
constexpr int kMinMigrations = 5;
constexpr std::chrono::seconds kWarmup{2};
constexpr int kLinpackN = 1000;         ///< table1_migration's linpack size
constexpr int kBitonicLog2Leaves = 17;  ///< table1_migration's bitonic size

enum class State { Linpack, Bitonic };

struct Workload {
  const char* name;
  State state;
  hpm::Transport transport;
  bool pipeline;
  bool warm_chunk_store;
};

constexpr Workload kWorkloads[] = {
    {"linpack", State::Linpack, hpm::Transport::Memory, true, false},
    {"bitonic", State::Bitonic, hpm::Transport::Memory, true, false},
    {"rerun", State::Linpack, hpm::Transport::Memory, true, true},
    {"spool", State::Linpack, hpm::Transport::File, false, false},
};

/// What the migratable program observed, written from outside the MSR
/// model (the probe is an entry argument, never migrated).
struct Probe {
  Clock::time_point freeze{};
  Clock::time_point resume{};
  double freeze_cpu = 0;
  double resume_cpu = 0;
  std::uint64_t source_sum = 0;
  std::uint64_t restored_sum = 0;
  bool resumed = false;
};

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Word-at-a-time mixing hash: cheap enough to run over 8 MB after every
/// migration, and any changed word changes the result.
struct Mix {
  std::uint64_t h = 0xCBF29CE484222325ull;
  void add(std::uint64_t v) {
    h = (h ^ v) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

/// The netlib linpack generator (apps/linpack.cpp's matgen, same seed
/// perturbation): the matrix, and b as its row sums.
void matgen(double* a, int n, double* b, std::uint64_t seed) {
  int init = 1325 + 2 * static_cast<int>(seed % 1000);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      init = 3125 * init % 65536;
      a[n * j + i] = (init - 32768.0) / 16384.0;
    }
  }
  for (int i = 0; i < n; ++i) b[i] = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) b[i] += a[n * j + i];
  }
}

/// apps/bitonic.cpp's tree construction: random leaves, zero internal
/// values, every node its own migratable-heap block.
BitonicNode* build_tree(hpm::MigContext& ctx, int depth, hpm::Rng& rng) {
  BitonicNode* node = ctx.heap_alloc<BitonicNode>(1, "node");
  node->value = depth == 0 ? static_cast<int>(rng.next_below(1u << 30)) : 0;
  node->left = depth == 0 ? nullptr : build_tree(ctx, depth - 1, rng);
  node->right = depth == 0 ? nullptr : build_tree(ctx, depth - 1, rng);
  return node;
}

/// Pre-order walk: every value, and whether the node has the shape a
/// perfect tree of this depth needs. Collects node addresses so the caller
/// can check that no node is reached twice.
bool walk_tree(const BitonicNode* node, int depth, Mix& m,
               std::vector<const BitonicNode*>& seen) {
  seen.push_back(node);
  m.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(node->value)));
  if (depth == 0) return node->left == nullptr && node->right == nullptr;
  if (node->left == nullptr || node->right == nullptr) return false;
  return walk_tree(node->left, depth - 1, m, seen) && walk_tree(node->right, depth - 1, m, seen);
}

/// Checksum of the whole state, by value and by identity: every element
/// of every array, the pointer-free blocks pairwise distinct (b0 is a copy
/// of b, so aliasing them would keep every value), and for the tree every
/// value, a perfect shape, and every node a distinct block (a restore that
/// bound two edges to one copy would keep every value too).
std::uint64_t state_sum(State state, const double* a, const double* b, const double* b0,
                        const int* ipvt, const BitonicNode* root) {
  Mix m;
  if (state == State::Linpack) {
    const void* blocks[] = {a, b, b0, ipvt};
    bool distinct = true;
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) distinct = distinct && blocks[i] != blocks[j];
    }
    m.add(static_cast<std::uint64_t>(distinct));
    for (int i = 0; i < kLinpackN * kLinpackN; ++i) m.add(a[i]);
    for (int i = 0; i < kLinpackN; ++i) {
      m.add(b[i]);
      m.add(b0[i]);
      m.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(ipvt[i])));
    }
    return m.h;
  }
  std::vector<const BitonicNode*> seen;
  seen.reserve(hpm::apps::bitonic_block_count(kBitonicLog2Leaves));
  const bool shape_ok = root != nullptr && walk_tree(root, kBitonicLog2Leaves, m, seen);
  std::sort(seen.begin(), seen.end());
  const bool distinct = std::adjacent_find(seen.begin(), seen.end()) == seen.end();
  m.add(static_cast<std::uint64_t>(shape_ok));
  m.add(static_cast<std::uint64_t>(distinct));
  m.add(static_cast<std::uint64_t>(seen.size()));
  return m.h;
}

/// The migratable program: build the seeded state on the migratable heap,
/// freeze at poll-point 1, and on the destination verify what arrived.
void migratable_state(hpm::MigContext& ctx, State state, std::uint64_t seed, Probe& probe) {
  HPM_FUNCTION(ctx);
  double* a = nullptr;
  double* b = nullptr;
  double* b0 = nullptr;
  int* ipvt = nullptr;
  BitonicNode* root = nullptr;
  HPM_LOCAL(ctx, a);
  HPM_LOCAL(ctx, b);
  HPM_LOCAL(ctx, b0);
  HPM_LOCAL(ctx, ipvt);
  HPM_LOCAL(ctx, root);
  HPM_BODY(ctx);
  {
    constexpr auto n = static_cast<std::uint32_t>(kLinpackN);
    if (state == State::Linpack) {
      a = ctx.heap_alloc<double>(n * n, "a");
      b = ctx.heap_alloc<double>(n, "b");
      b0 = ctx.heap_alloc<double>(n, "b0");
      matgen(a, kLinpackN, b, seed);
      std::copy(b, b + n, b0);
      // Not yet written by dgefa at the first poll; zeroed so the stream
      // is the same every time.
      ipvt = ctx.heap_alloc<int>(n, "ipvt");
      std::fill(ipvt, ipvt + n, 0);
    } else {
      hpm::Rng rng(seed);
      root = build_tree(ctx, kBitonicLog2Leaves, rng);
    }
    // The state is rebuilt identically from the seed every time, so the
    // first migration's source checksum stands for all of them.
    if (probe.source_sum == 0) probe.source_sum = state_sum(state, a, b, b0, ipvt, root);
    probe.freeze_cpu = process_cpu_seconds();
    probe.freeze = Clock::now();
  }
  HPM_POLL(ctx, 1);
  probe.resume = Clock::now();
  probe.resume_cpu = process_cpu_seconds();
  probe.resumed = true;
  probe.restored_sum = state_sum(state, a, b, b0, ipvt, root);
  HPM_BODY_END(ctx);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Series {
  const char* unit = "";
  std::vector<double> samples;
};

/// Per-layer samples of one migration: span totals plus registry deltas.
void record_layers(const hpm::MigrationReport& report, std::map<std::string, Series>& layers) {
  auto put = [&layers](const char* name, const char* unit, double value) {
    Series& s = layers[name];
    s.unit = unit;
    s.samples.push_back(value);
  };
  double collect_us = 0, tx_us = 0, restore_us = 0;
  for (const hpm::obs::SpanRecord& s : hpm::obs::Tracer::process().finished()) {
    if (s.name == "mig.collect") collect_us += s.dur_us;
    if (s.name == "mig.tx") tx_us += s.dur_us;
    if (s.name == "mig.restore") restore_us += s.dur_us;
  }
  const hpm::obs::MetricsSnapshot& m = report.metrics;
  auto c = [&m](std::string_view name) { return static_cast<double>(m.counter(name)); };
  const double searches = c("msr.msrlt.searches");
  const double manifest = c("mig.dedup.manifest_chunks");
  put("collect_ms", "ms", collect_us / 1e3);
  put("tx_ms", "ms", tx_us / 1e3);
  put("restore_ms", "ms", restore_us / 1e3);
  put("overlap_pct", "%", report.overlap_ratio * 100);
  put("stream_bytes", "bytes", static_cast<double>(report.stream_bytes));
  put("msrlt_searches", "count", searches);
  put("msrlt_steps_per_search", "steps",
      searches > 0 ? c("msr.msrlt.search_steps") / searches : 0);
  put("msrlt_cache_hit_pct", "%", searches > 0 ? 100 * c("msr.msrlt.cache_hits") / searches : 0);
  put("blocks_saved", "count", c("msrm.collect.blocks_saved"));
  put("blocks_restored", "count", c("msrm.restore.blocks_created"));
  put("frames_sent", "count", c("net.frames.sent"));
  put("dedup_hit_pct", "%", manifest > 0 ? 100 * c("mig.dedup.hits") / manifest : 0);
  put("retries", "count", c("mig.coordinator.retries") + c("mig.resume.attempts"));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--scratch") {
      a.scratch = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.scratch.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: migbench --workload <linpack|bitonic|rerun|spool> --seed N "
                 "--seconds S --trace <0|1> --scratch DIR\n");
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "migbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;

  Probe probe;
  hpm::RunOptions options;
  // The program's locals name BitonicNode* on every workload; linpack
  // itself registers nothing.
  options.register_types = hpm::apps::bitonic_register_types;
  options.program = [&w, &probe, seed = args.seed](hpm::MigContext& ctx) {
    migratable_state(ctx, w.state, seed, probe);
  };
  options.migrate_at_poll = 1;
  options.transport = w.transport;
  options.pipeline = w.pipeline;

  long attempted = 0;
  long failed = 0;
  std::uint64_t digest = 0;
  // One migration; returns true when it migrated and restored exactly the
  // state the source froze.
  auto migrate = [&](hpm::MigrationReport& report) {
    probe = Probe{.source_sum = probe.source_sum};
    hpm::obs::Tracer::process().clear();
    ++attempted;
    bool ok = false;
    try {
      report = hpm::run_migration(options);
      ok = report.migrated && report.outcome == hpm::MigrationOutcome::Migrated &&
           probe.resumed && probe.restored_sum == probe.source_sum;
      // Paths that carry the end-to-end stream digest must reproduce it:
      // the state is rebuilt identically for every migration.
      if (ok && report.stream_digest != 0) {
        if (digest == 0) digest = report.stream_digest;
        ok = report.stream_digest == digest;
      }
      if (!ok && failed < 3) {
        std::fprintf(stderr, "migbench: migration %ld failed: outcome %s, resumed %d\n",
                     attempted, hpm::outcome_name(report.outcome), probe.resumed ? 1 : 0);
      }
    } catch (const std::exception& e) {
      if (failed < 3) {
        std::fprintf(stderr, "migbench: migration %ld threw: %s\n", attempted, e.what());
      }
    }
    if (!ok) ++failed;
    return ok;
  };

  const fs::path scratch = fs::absolute(args.scratch);
  options.spool_path = (scratch / "spool.bin").string();
  if (w.warm_chunk_store) options.chunk_cache_dir = (scratch / "chunks").string();
  auto fresh_scratch = [&scratch] {
    std::error_code ec;
    fs::remove_all(scratch, ec);
    fs::create_directories(scratch, ec);
    if (ec) std::fprintf(stderr, "migbench: cannot create %s\n", scratch.c_str());
    return !ec;
  };

  // --- warm-up, untimed: the first seconds of a run are slower (heap
  // first-touch, idle vCPUs ramping up) and would skew set-up and timing.
  if (!fresh_scratch()) return 2;
  const auto warm_until = Clock::now() + kWarmup;
  for (int n = 0; n < kMinMigrations || Clock::now() < warm_until; ++n) {
    hpm::MigrationReport report;
    migrate(report);
  }

  // --- set-up: fresh scratch + one complete migration, several times ----
  std::vector<double> setup_s;
  const auto setup_until = Clock::now() + kMinSetup;
  for (int round = 0; round < kMinSetupRounds || Clock::now() < setup_until; ++round) {
    const auto t0 = Clock::now();
    if (!fresh_scratch()) return 2;
    hpm::MigrationReport report;
    migrate(report);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  // --- timed loop --------------------------------------------------------
  std::vector<double> downtime_ms, cpu_ms, wire_bytes;
  std::map<std::string, Series> layers;
  const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
  long timed = 0;
  while (timed < kMinMigrations || Clock::now() < deadline) {
    hpm::MigrationReport report;
    ++timed;
    if (!migrate(report)) continue;
    downtime_ms.push_back(ms_between(probe.freeze, probe.resume));
    cpu_ms.push_back((probe.resume_cpu - probe.freeze_cpu) * 1e3);
    wire_bytes.push_back(static_cast<double>(report.metrics.counter("net.frames.bytes_sent")));
    if (args.trace) record_layers(report, layers);
  }
  std::error_code ec;
  fs::remove_all(scratch, ec);

  std::fprintf(stderr,
               "migbench %s seed=%llu: %zu timed migrations, %ld attempted, %ld failed; "
               "downtime median %.4f ms p90 %.4f ms, cpu %.4f ms, wire %.0f bytes, "
               "setup %.4f s\n",
               w.name, static_cast<unsigned long long>(args.seed), downtime_ms.size(),
               attempted, failed, median(downtime_ms), quantile(downtime_ms, 0.9),
               median(cpu_ms), median(wire_bytes), median(setup_s));

  std::string metrics;
  auto add = [&metrics](const std::string& name, double value, const char* unit) {
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value, unit);
    metrics += buf;
  };
  if (args.trace) {
    for (const auto& [name, series] : layers) add(name, median(series.samples), series.unit);
  } else {
    add("downtime_ms", median(downtime_ms), "ms");
    add("cpu_ms", median(cpu_ms), "ms");
    add("wire_bytes", median(wire_bytes), "bytes");
    add("setup_s", median(setup_s), "s");
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed, metrics.c_str());
  return 0;
}
