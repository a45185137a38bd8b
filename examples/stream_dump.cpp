// stream_dump: inspect what actually goes over the wire.
//
//   $ ./examples/stream_dump [-v]
//
// Collects the test_pointer program's state at its migration point and
// prints the decoded stream: header, TI table size, execution state
// (frames, resume labels, live variables), and every block record with
// its NEW/REF/NULL pointer structure — the tool to reach for when a
// destination rejects a stream.
#include <cstdio>
#include <cstring>

#include "apps/test_pointer.hpp"
#include "hpm/migrate.hpp"
#include "msrm/dump.hpp"

int main(int argc, char** argv) {
  hpm::ti::TypeTable types;
  hpm::apps::test_pointer_register_types(types);
  hpm::mig::MigContext ctx(types);
  ctx.set_migrate_at_poll(1);
  hpm::apps::TestPointerResult result;
  try {
    hpm::apps::test_pointer_program(ctx, 5, &result);
  } catch (const hpm::mig::MigrationExit&) {
    // Collected; the stream is ready.
  }

  hpm::msrm::DumpOptions options;
  options.show_primitive_values = argc > 1 && std::strcmp(argv[1], "-v") == 0;
  std::fputs(hpm::msrm::dump_stream(ctx.stream(), options).c_str(), stdout);
  return 0;
}
