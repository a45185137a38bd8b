// checkpoint_restart: heterogeneous checkpointing with the migration
// stream — run a computation, checkpoint it mid-flight to a file,
// "crash", and restart from the file.
//
//   $ ./examples/checkpoint_restart [n] [checkpoint_at]
#include <cstdio>
#include <cstdlib>

#include "ckpt/checkpoint.hpp"
#include "hpm/migrate.hpp"

namespace {

struct Result {
  double pi_estimate = 0;
  int completed = 0;
};

/// Leibniz series for pi — a long-running loop with one poll per term.
void pi_program(hpm::mig::MigContext& ctx, int n, Result* out) {
  HPM_FUNCTION(ctx);
  int i;
  double acc;
  HPM_LOCAL(ctx, i);
  HPM_LOCAL(ctx, acc);
  HPM_LOCAL(ctx, n);
  HPM_BODY(ctx);
  acc = 0;
  for (i = 0; i < n; ++i) {
    HPM_POLL(ctx, 1);
    acc += (i % 2 == 0 ? 4.0 : -4.0) / (2.0 * i + 1.0);
  }
  out->pi_estimate = acc;
  out->completed += 1;
  HPM_BODY_END(ctx);
}

}  // namespace

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 2000000;
  const std::uint64_t at = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                    : static_cast<std::uint64_t>(n) / 2;
  const std::string path = "/tmp/hpm_pi.ckpt";

  Result live;
  const hpm::ckpt::CheckpointInfo info = hpm::ckpt::checkpoint_run(
      [](hpm::ti::TypeTable&) {},
      [&live, n](hpm::mig::MigContext& ctx) { pi_program(ctx, n, &live); }, path, at);
  std::printf("checkpointed at term %llu into %s (%llu state bytes, arch %s)\n",
              static_cast<unsigned long long>(at), path.c_str(),
              static_cast<unsigned long long>(info.state_bytes), info.source_arch.c_str());
  std::printf("continued run finished: pi ~= %.9f\n", live.pi_estimate);

  // "Crash" and restart from the file in a brand-new context.
  Result revived;
  hpm::ckpt::restart_run([](hpm::ti::TypeTable&) {},
                         [&revived, n](hpm::mig::MigContext& ctx) {
                           pi_program(ctx, n, &revived);
                         },
                         path);
  std::printf("restarted run finished:  pi ~= %.9f\n", revived.pi_estimate);
  const bool match = revived.pi_estimate == live.pi_estimate;
  std::printf("bitwise identical results: %s\n", match ? "yes" : "NO");
  return match ? 0 : 1;
}
