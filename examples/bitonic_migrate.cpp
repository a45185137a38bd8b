// bitonic_migrate: the paper's allocation-heavy workload — a binary tree
// of random integers sorted by a recursive bitonic network — migrated
// while the recursion is many frames deep.
//
//   $ ./examples/bitonic_migrate [log2_leaves] [migrate_at_poll]
//
// Demonstrates (1) migration from inside nested/recursive calls, and
// (2) the many-small-blocks MSR profile: thousands of heap nodes each
// become one MSR graph vertex.
#include <cstdio>
#include <cstdlib>

#include "apps/bitonic.hpp"
#include "hpm/migrate.hpp"

int main(int argc, char** argv) {
  const int log2_leaves = argc > 1 ? std::atoi(argv[1]) : 10;
  const std::uint64_t at_poll =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : (1ull << log2_leaves);

  hpm::apps::BitonicResult result;
  hpm::mig::RunOptions options;
  options.register_types = hpm::apps::bitonic_register_types;
  options.program = [&result, log2_leaves](hpm::mig::MigContext& ctx) {
    hpm::apps::bitonic_program(ctx, log2_leaves, /*seed=*/2024, &result);
  };
  options.migrate_at_poll = at_poll;

  const hpm::mig::MigrationReport report = hpm::mig::run_migration(options);

  std::printf("bitonic sort of %u numbers: migrated=%s\n", 1u << log2_leaves,
              report.migrated ? "yes" : "no");
  std::printf("  MSR nodes moved : %llu blocks (+%llu shared refs), %llu bytes\n",
              static_cast<unsigned long long>(
                  report.metrics.counter("msrm.collect.blocks_saved")),
              static_cast<unsigned long long>(
                  report.metrics.counter("msrm.collect.refs_saved")),
              static_cast<unsigned long long>(report.stream_bytes));
  std::printf("  collect/tx/restore: %.4f / %.4f / %.4f s\n", report.collect_seconds,
              report.tx_seconds, report.restore_seconds);
  std::printf("  sorted=%s multiset-preserved=%s -> %s\n", result.sorted ? "yes" : "no",
              result.sum_before == result.sum_after ? "yes" : "no",
              result.ok() ? "PASS" : "FAIL");
  return result.ok() ? 0 : 1;
}
