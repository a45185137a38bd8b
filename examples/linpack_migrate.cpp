// linpack_migrate: the paper's computation-intensive workload, migrated
// mid-factorization over a chosen transport.
//
//   $ ./examples/linpack_migrate [n] [migrate_at_poll] [mem|socket|file]
//       ... [--pipeline] [--trace <out.json>]
//
// Solves Ax = b for an n x n system; a migration request lands while
// dgefa is eliminating columns, the process moves, and the destination
// finishes the solve and verifies the residual of the migrated solution.
// With --pipeline, the transfer is chunked and Collect / Tx / Restore
// overlap (DESIGN.md §10); the report then shows the achieved overlap.
// With --trace, the run's spans (mig.run > mig.collect / mig.tx, and
// mig.restore on the destination thread) are exported as Chrome
// trace_event JSON — load the file in chrome://tracing or ui.perfetto.dev.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "apps/linpack.hpp"
#include "hpm/migrate.hpp"

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 300;
  const std::uint64_t at_poll = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                         : static_cast<std::uint64_t>(n) / 2;
  hpm::mig::Transport transport = hpm::mig::Transport::Memory;
  if (argc > 3 && std::strcmp(argv[3], "socket") == 0) transport = hpm::mig::Transport::Socket;
  if (argc > 3 && std::strcmp(argv[3], "file") == 0) transport = hpm::mig::Transport::File;
  const char* trace_path = nullptr;
  bool pipeline = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) trace_path = argv[i + 1];
    if (std::strcmp(argv[i], "--pipeline") == 0) pipeline = true;
  }

  hpm::apps::LinpackResult result;
  hpm::mig::RunOptions options;
  options.register_types = hpm::apps::linpack_register_types;
  options.program = [&result, n](hpm::mig::MigContext& ctx) {
    hpm::apps::linpack_program(ctx, n, /*seed=*/1, &result);
  };
  options.migrate_at_poll = at_poll;
  options.transport = transport;
  options.spool_path = "/tmp/hpm_linpack_spool.bin";
  options.pipeline = pipeline;

  const hpm::mig::MigrationReport report = hpm::mig::run_migration(options);

  std::printf("linpack %dx%d: migrated=%s after %llu polls\n", n, n,
              report.migrated ? "yes" : "no",
              static_cast<unsigned long long>(options.migrate_at_poll));
  std::printf("  live data     : %llu bytes in %llu blocks\n",
              static_cast<unsigned long long>(report.stream_bytes),
              static_cast<unsigned long long>(
                  report.metrics.counter("msrm.collect.blocks_saved")));
  std::printf("  collect/tx/restore: %.4f / %.4f / %.4f s (Tx on 100 Mb/s model)\n",
              report.collect_seconds, report.tx_seconds, report.restore_seconds);
  if (pipeline) {
    std::printf("  pipeline      : %llu chunks, overlap_ratio=%.2f\n",
                static_cast<unsigned long long>(
                    report.metrics.counter("mig.pipeline.chunks")),
                report.overlap_ratio);
  }
  std::printf("  solution      : residual=%.3e normalized=%.3f -> %s\n", result.residual,
              result.normalized, result.ok() ? "PASS" : "FAIL");
  if (trace_path != nullptr) {
    if (hpm::obs::Tracer::process().write_chrome_trace(trace_path)) {
      std::printf("  trace         : %zu spans -> %s (open in chrome://tracing)\n",
                  hpm::obs::Tracer::process().finished_count(), trace_path);
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path);
    }
  }
  return result.ok() ? 0 : 1;
}
