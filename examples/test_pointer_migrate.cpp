// test_pointer_migrate: the paper's synthetic pointer-shape program —
// trees, interior pointers, shared targets, and the Figure 1 cycle —
// migrated at its poll-point, then structurally verified.
//
//   $ ./examples/test_pointer_migrate
//
// Also dumps the MSR graph of the source right before migration as
// Graphviz DOT (stdout), mirroring Figure 1(b) of the paper.
#include <cstdio>

#include "apps/test_pointer.hpp"
#include "hpm/migrate.hpp"
#include "msr/graph.hpp"

int main() {
  hpm::apps::TestPointerResult result;
  hpm::mig::RunOptions options;
  options.register_types = hpm::apps::test_pointer_register_types;
  options.program = [&result](hpm::mig::MigContext& ctx) {
    hpm::apps::test_pointer_program(ctx, /*seed=*/5, &result);
  };
  options.migrate_at_poll = 1;

  const hpm::mig::MigrationReport report = hpm::mig::run_migration(options);

  std::printf("test_pointer: migrated=%s, %llu blocks / %llu refs / %llu bytes\n",
              report.migrated ? "yes" : "no",
              static_cast<unsigned long long>(
                  report.metrics.counter("msrm.collect.blocks_saved")),
              static_cast<unsigned long long>(
                  report.metrics.counter("msrm.collect.refs_saved")),
              static_cast<unsigned long long>(report.stream_bytes));
  std::printf("  tree=%d scalar=%d array=%d ptr_array=%d dag=%d cycle=%d interior=%d\n",
              result.tree_ok, result.scalar_ptr_ok, result.array_ptr_ok,
              result.ptr_array_ok, result.dag_ok, result.cycle_ok, result.interior_ok);
  std::printf("  overall: %s\n", result.ok() ? "PASS" : "FAIL");

  // Reproduce the Figure 1(b) style rendering: snapshot the MSR graph at
  // the poll-point, while every structure is live.
  hpm::ti::TypeTable table;
  hpm::apps::test_pointer_register_types(table);
  hpm::mig::MigContext ctx(table);
  std::string dot;
  ctx.set_poll_observer([&dot](hpm::mig::MigContext& c) {
    if (dot.empty()) dot = hpm::msr::MsrGraph::snapshot(c.space()).to_dot();
  });
  hpm::apps::TestPointerResult scratch;
  hpm::apps::test_pointer_program(ctx, 5, &scratch);  // completes in place
  std::printf("\nMSR graph (Graphviz DOT) at the migration point, cf. Figure 1(b):\n%s\n",
              dot.c_str());
  return result.ok() && scratch.ok() ? 0 : 1;
}
