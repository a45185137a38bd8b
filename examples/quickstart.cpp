// Quickstart: migrate a small pointer-rich program between two "hosts"
// (threads) in one process, and watch what moved.
//
//   $ ./examples/quickstart
//
// Walks through the full API surface a user needs: type registration,
// the annotation macros, the migratable heap, a migration trigger, and
// the Collect/Tx/Restore report.
#include <cstdio>

#include "hpm/migrate.hpp"

namespace {

// 1. Describe your data types once (the paper's TI table). The same
//    registration runs on the source and the destination.
struct Point {
  double x;
  double y;
  Point* next;  // intrusive list
};

void register_types(hpm::ti::TypeTable& table) {
  hpm::ti::StructBuilder<Point> b(table, "point");
  HPM_TI_FIELD(b, Point, x);
  HPM_TI_FIELD(b, Point, y);
  HPM_TI_FIELD(b, Point, next);
  b.commit();
}

// 2. Write the program with the annotation macros: declare + register
//    live locals, wrap the body in HPM_BODY, and place poll-points where
//    migration is allowed to happen.
void walk_points(hpm::mig::MigContext& ctx, int n, double* result_sum) {
  HPM_FUNCTION(ctx);
  Point* head;
  Point* cursor;
  double sum;
  int i;
  HPM_LOCAL(ctx, head);
  HPM_LOCAL(ctx, cursor);
  HPM_LOCAL(ctx, sum);
  HPM_LOCAL(ctx, i);
  HPM_BODY(ctx);

  // Build a short cyclic list on the migratable heap.
  head = nullptr;
  for (i = 0; i < n; ++i) {
    Point* p = ctx.heap_alloc<Point>(1, "point");
    p->x = i;
    p->y = i * 0.5;
    p->next = head;
    head = p;
  }

  // Walk it; the poll-point makes every step a legal migration point.
  sum = 0;
  cursor = head;
  for (i = 0; i < n; ++i) {
    HPM_POLL(ctx, 1);
    sum += cursor->x + cursor->y;
    cursor = cursor->next;
  }
  *result_sum = sum;

  while (head != nullptr) {
    Point* dead = head;
    head = head->next;
    ctx.heap_free(dead);
  }
  HPM_BODY_END(ctx);
}

}  // namespace

int main() {
  // 3. Run with a migration triggered at the 50th poll (mid-walk).
  double sum = 0;
  hpm::mig::RunOptions options;
  options.register_types = register_types;
  options.program = [&sum](hpm::mig::MigContext& ctx) { walk_points(ctx, 100, &sum); };
  options.migrate_at_poll = 50;
  options.link = hpm::net::SimulatedLink::ethernet_100mbps();

  const hpm::mig::MigrationReport report = hpm::mig::run_migration(options);

  std::printf("quickstart: sum = %.1f (expect %.1f)\n", sum, 100 * 99 / 2 * 1.5);
  std::printf("migrated:   %s\n", report.migrated ? "yes" : "no");
  std::printf("stream:     %llu bytes, %llu blocks, %llu shared refs\n",
              static_cast<unsigned long long>(report.stream_bytes),
              static_cast<unsigned long long>(
                  report.metrics.counter("msrm.collect.blocks_saved")),
              static_cast<unsigned long long>(
                  report.metrics.counter("msrm.collect.refs_saved")));
  std::printf("collect:    %.6f s\n", report.collect_seconds);
  std::printf("tx (model): %.6f s on 100 Mb/s Ethernet\n", report.tx_seconds);
  std::printf("restore:    %.6f s\n", report.restore_seconds);
  return sum == 100 * 99 / 2 * 1.5 ? 0 : 1;
}
