// BENCH_*.json emission in the stable `hpm-bench-v1` schema, shared by
// every bench binary, plus the tiny --smoke/--json argument convention
// the bench-smoke ctest target relies on.
//
// Schema (validated by tools/bench_schema_check):
//   {
//     "schema":  "hpm-bench-v1",          // exact string
//     "bench":   "<binary name>",         // non-empty
//     "smoke":   true|false,
//     "host":    {"nproc": <n >= 1>, "cpu_model": "...",
//                 "compiler": "...", "build_type": "..."},
//     "results": [                        // >= 1 entry
//       {"name": "...", "value": <number>, "unit": "..."}, ...
//     ],
//     "metrics": { "counters": {...}, "gauges": {...}, "histograms": {...} }
//   }
// "metrics" is the process obs::Registry snapshot at write time, so every
// run ships its MSRLT/msrm/xdr/net counters and `trace.*` phase
// histograms (p50/p95/p99) alongside the headline numbers. "host" stamps
// the machine and build the figures were measured on (host_stamp_json):
// a figure compares only with figures from the same stamp.
//
// The build type comes from HPM_BUILD_TYPE, which the CMake targets that
// include this header define from CMAKE_BUILD_TYPE.
#pragma once

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace hpm::bench {

struct BenchArgs {
  bool smoke = false;      ///< --smoke: one cheap iteration, then exit 0
  std::string json_path;   ///< --json <path>; empty = no JSON written
};

/// Recognizes --smoke and --json <path>; other arguments are left for the
/// bench (google-benchmark flags pass through untouched). A non-null
/// `default_json_path` makes the bench always write (benches whose JSON
/// feeds downstream consumers — calibration, the perf guard); null keeps
/// JSON opt-in.
inline BenchArgs parse_bench_args(int argc, char** argv,
                                  const char* default_json_path = nullptr) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    }
  }
  if (args.json_path.empty() && default_json_path != nullptr) {
    args.json_path = default_json_path;
  }
  return args;
}

/// The "host" object of a report: online CPU count, CPU model (the first
/// "model name" of /proc/cpuinfo, "unknown" where there is none),
/// compiler, and build type (with the sanitizer, when one is on).
inline std::string host_stamp_json() {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) continue;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    if (start != std::string::npos) cpu_model = line.substr(start);
    break;
  }
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
#ifdef HPM_BUILD_TYPE
  std::string build_type = HPM_BUILD_TYPE;
#else
  std::string build_type;
#endif
  if (build_type.empty()) build_type = "unspecified";
#if defined(__SANITIZE_ADDRESS__)
  build_type += "+asan";
#elif defined(__SANITIZE_THREAD__)
  build_type += "+tsan";
#endif
  const unsigned nproc = std::thread::hardware_concurrency();
  return "{\"nproc\":" + std::to_string(nproc == 0 ? 1 : nproc) + ",\"cpu_model\":\"" +
         obs::json_escape(cpu_model) + "\",\"compiler\":\"" + obs::json_escape(compiler) +
         "\",\"build_type\":\"" + obs::json_escape(build_type) + "\"}";
}

/// Accumulates headline results and writes them (plus the registry
/// snapshot) as one hpm-bench-v1 document.
class BenchReport {
 public:
  BenchReport(std::string bench_name, bool smoke)
      : bench_(std::move(bench_name)), smoke_(smoke) {}

  void add(std::string name, double value, std::string unit) {
    results_.push_back(Row{std::move(name), value, std::move(unit)});
  }

  /// Derived-ratio row (e.g. search steps per search, cache hit rate);
  /// a zero denominator records 0 rather than inf/nan, which would break
  /// the JSON schema.
  void add_ratio(std::string name, double numerator, double denominator,
                 std::string unit = "ratio") {
    add(std::move(name), denominator == 0 ? 0 : numerator / denominator, std::move(unit));
  }

  /// p50/p95/p99 rows for one registry histogram (no-op when the
  /// histogram holds no samples), e.g. per-phase latencies from
  /// "trace.mig.collect".
  void add_percentiles(const std::string& metric_name) {
    const obs::MetricsSnapshot snap = obs::Registry::process().snapshot();
    const obs::HistogramSummary* h = snap.histogram(metric_name);
    if (h == nullptr || h->count == 0) return;
    const char* unit = obs::unit_name(
        obs::Registry::process().histogram(metric_name).unit());
    add(metric_name + ".p50", h->p50, unit);
    add(metric_name + ".p95", h->p95, unit);
    add(metric_name + ".p99", h->p99, unit);
  }

  /// Serialize and write; returns false (with a stderr note) on failure.
  bool write(const std::string& path) const {
    std::string out = "{\"schema\":\"hpm-bench-v1\",\"bench\":\"" +
                      obs::json_escape(bench_) + "\",\"smoke\":";
    out += smoke_ ? "true" : "false";
    out += ",\"host\":" + host_stamp_json();
    out += ",\"results\":[";
    bool first = true;
    for (const Row& row : results_) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"" + obs::json_escape(row.name) +
             "\",\"value\":" + obs::json_number(row.value) + ",\"unit\":\"" +
             obs::json_escape(row.unit) + "\"}";
    }
    out += "],\"metrics\":" + obs::Registry::process().snapshot().to_json() + "}\n";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchReport: cannot open %s\n", path.c_str());
      return false;
    }
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    const bool closed = std::fclose(f) == 0;
    if (!ok || !closed) std::fprintf(stderr, "BenchReport: short write to %s\n", path.c_str());
    return ok && closed;
  }

  /// write() when a path was given; harmless otherwise. Returns false
  /// only on an actual write failure.
  bool write_if_requested(const BenchArgs& args) const {
    return args.json_path.empty() ? true : write(args.json_path);
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::string bench_;
  bool smoke_;
  std::vector<Row> results_;
};

}  // namespace hpm::bench
