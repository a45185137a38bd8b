// nbody_migrate: a realistic long-running scientific workload — direct
// N-body gravity with leapfrog integration — migrated mid-simulation.
//
//   $ ./examples/nbody_migrate [bodies] [steps]
//
// Determinism makes the correctness check airtight: the run that
// migrates halfway must produce BIT-IDENTICAL final state to a run that
// never migrates, because collection/restoration preserves every double
// exactly (§4.1's "high-order floating point accuracy").
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "hpm/migrate.hpp"

namespace {

struct Body {
  double x, y, z;
  double vx, vy, vz;
  double mass;
};

void register_types(hpm::ti::TypeTable& table) {
  hpm::ti::StructBuilder<Body> b(table, "body");
  HPM_TI_FIELD(b, Body, x);
  HPM_TI_FIELD(b, Body, y);
  HPM_TI_FIELD(b, Body, z);
  HPM_TI_FIELD(b, Body, vx);
  HPM_TI_FIELD(b, Body, vy);
  HPM_TI_FIELD(b, Body, vz);
  HPM_TI_FIELD(b, Body, mass);
  b.commit();
}

void init_bodies(Body* bodies, int n, hpm::Rng& rng) {
  for (int i = 0; i < n; ++i) {
    bodies[i].x = rng.next_double() * 10 - 5;
    bodies[i].y = rng.next_double() * 10 - 5;
    bodies[i].z = rng.next_double() * 10 - 5;
    bodies[i].vx = rng.next_double() * 0.1 - 0.05;
    bodies[i].vy = rng.next_double() * 0.1 - 0.05;
    bodies[i].vz = rng.next_double() * 0.1 - 0.05;
    bodies[i].mass = 0.5 + rng.next_double();
  }
}

void kick_drift(Body* bodies, int n, double dt) {
  constexpr double kSoftening = 1e-2;
  for (int i = 0; i < n; ++i) {
    double ax = 0, ay = 0, az = 0;
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const double dx = bodies[j].x - bodies[i].x;
      const double dy = bodies[j].y - bodies[i].y;
      const double dz = bodies[j].z - bodies[i].z;
      const double r2 = dx * dx + dy * dy + dz * dz + kSoftening;
      const double inv_r3 = 1.0 / (r2 * std::sqrt(r2));
      ax += bodies[j].mass * dx * inv_r3;
      ay += bodies[j].mass * dy * inv_r3;
      az += bodies[j].mass * dz * inv_r3;
    }
    bodies[i].vx += ax * dt;
    bodies[i].vy += ay * dt;
    bodies[i].vz += az * dt;
  }
  for (int i = 0; i < n; ++i) {
    bodies[i].x += bodies[i].vx * dt;
    bodies[i].y += bodies[i].vy * dt;
    bodies[i].z += bodies[i].vz * dt;
  }
}

void nbody_program(hpm::mig::MigContext& ctx, int n, int steps,
                   std::vector<Body>* final_state) {
  HPM_FUNCTION(ctx);
  Body* bodies;
  int step;
  HPM_LOCAL(ctx, bodies);
  HPM_LOCAL(ctx, step);
  HPM_LOCAL(ctx, n);
  HPM_BODY(ctx);
  bodies = ctx.heap_alloc<Body>(static_cast<std::uint32_t>(n), "bodies");
  {
    hpm::Rng rng(4242);
    init_bodies(bodies, n, rng);
  }
  for (step = 0; step < steps; ++step) {
    HPM_POLL(ctx, 1);  // one legal migration point per timestep
    kick_drift(bodies, n, 1e-3);
  }
  final_state->assign(bodies, bodies + n);
  ctx.heap_free(bodies);
  HPM_BODY_END(ctx);
}

}  // namespace

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 128;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 200;

  // Reference: no migration.
  std::vector<Body> reference;
  {
    hpm::mig::RunOptions options;
    options.register_types = register_types;
    options.program = [&reference, n, steps](hpm::mig::MigContext& ctx) {
      nbody_program(ctx, n, steps, &reference);
    };
    hpm::mig::run_migration(options);
  }

  // Migrated halfway through the integration.
  std::vector<Body> migrated;
  hpm::mig::RunOptions options;
  options.register_types = register_types;
  options.program = [&migrated, n, steps](hpm::mig::MigContext& ctx) {
    nbody_program(ctx, n, steps, &migrated);
  };
  options.migrate_at_poll = static_cast<std::uint64_t>(steps) / 2;
  const hpm::mig::MigrationReport report = hpm::mig::run_migration(options);

  const bool identical =
      reference.size() == migrated.size() &&
      std::memcmp(reference.data(), migrated.data(), reference.size() * sizeof(Body)) == 0;
  std::printf("nbody: %d bodies x %d steps, migrated at step %d (%llu bytes of state)\n", n,
              steps, steps / 2, static_cast<unsigned long long>(report.stream_bytes));
  std::printf("final state bit-identical to the unmigrated run: %s\n",
              identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
