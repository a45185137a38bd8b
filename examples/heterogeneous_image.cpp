// heterogeneous_image: truly heterogeneous data transfer on one machine.
//
//   $ ./examples/heterogeneous_image [nodes]
//
// Builds a random pointer graph in native (e.g. x86-64 little-endian)
// memory, collects it, restores it into a byte-exact SPARCstation-20
// memory image (big-endian, ILP32 — the paper's destination machine),
// shows the byte-level layout difference, then collects it back OUT of
// the SPARC image and restores to native memory. The final graph must be
// fingerprint-identical to the original: every endianness, width, and
// alignment conversion round-tripped exactly.
#include <cstdio>

#include "apps/workload.hpp"
#include "hpm/migrate.hpp"
#include "memimg/image_space.hpp"

using namespace hpm;

int main(int argc, char** argv) {
  const std::uint32_t nodes = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 64;

  ti::TypeTable table;
  apps::workload_register_types(table);

  // --- source: native host memory ----------------------------------------
  mig::MigContext src(table);
  apps::RandNode*& root = src.global<apps::RandNode*>("root");
  apps::GraphShape shape;
  shape.nodes = nodes;
  auto all = apps::build_random_graph(src, /*seed=*/7, shape);
  root = all[0];
  const std::uint64_t fp_before = apps::graph_fingerprint(root);

  const obs::MetricsSnapshot before_collect = obs::Registry::process().snapshot();
  xdr::Encoder enc;
  msrm::Collector collect_host(src.space(), enc);
  collect_host.save_variable(reinterpret_cast<msr::Address>(&root));
  const Bytes stream1 = enc.take();
  const obs::MetricsSnapshot host_collect =
      obs::Registry::process().snapshot().delta_since(before_collect);
  std::printf("host -> wire : %zu bytes, %llu blocks, %llu shared refs\n", stream1.size(),
              static_cast<unsigned long long>(host_collect.counter("msrm.collect.blocks_saved")),
              static_cast<unsigned long long>(host_collect.counter("msrm.collect.refs_saved")));

  // --- restore into the SPARC 20 image (big-endian, ILP32) ----------------
  memimg::ImageSpace sparc(table, xdr::sparc20_solaris());
  xdr::Decoder dec1(stream1);
  msrm::Restorer into_sparc(sparc, dec1, xdr::native_arch());
  into_sparc.set_auto_bind(true);
  const msr::Address sparc_root_var = into_sparc.restore_variable();
  std::printf("wire -> sparc: image holds %llu bytes under %s layout\n",
              static_cast<unsigned long long>(sparc.bytes_in_use()),
              sparc.arch().name.c_str());

  // Show the conversion: the first node's `long tag` occupies 4 big-endian
  // bytes in the image versus 8 little-endian bytes natively.
  {
    const msr::MemoryBlock* rv = sparc.msrlt().find_id(sparc_root_var);
    const msr::Address first_node = sparc.read_pointer(rv->base);
    const msr::LogicalPointer lp = msr::resolve_pointer(sparc, first_node);
    const auto bytes = sparc.block_bytes(lp.block);
    std::printf("first node in the image (%zu bytes, struct rand_node as ILP32/BE):\n%s",
                bytes.size(), hexdump(bytes).c_str());
    std::printf("native long tag of the same node: %ld (sizeof(long)=%zu here)\n",
                all[0]->tag, sizeof(long));
  }

  // --- collect back out of the image ---------------------------------------
  xdr::Encoder enc2;
  msrm::Collector collect_sparc(sparc, enc2);
  const msr::MemoryBlock* sparc_root_block = sparc.msrlt().find_id(sparc_root_var);
  collect_sparc.save_variable(sparc_root_block->base);
  const Bytes stream2 = enc2.take();
  std::printf("sparc -> wire: %zu bytes (identical payload semantics)\n", stream2.size());

  // --- restore to a second native host -------------------------------------
  msr::HostSpace host2(table);
  xdr::Decoder dec2(stream2);
  msrm::Restorer into_host(host2, dec2, xdr::sparc20_solaris());
  into_host.set_auto_bind(true);
  const msr::Address root_var2 = into_host.restore_variable();
  const msr::MemoryBlock* rv2 = host2.msrlt().find_id(root_var2);
  const auto* root2 = reinterpret_cast<apps::RandNode* const*>(rv2->base);
  const std::uint64_t fp_after = apps::graph_fingerprint(*root2);

  std::printf("fingerprint before: %016llx\n", static_cast<unsigned long long>(fp_before));
  std::printf("fingerprint after : %016llx\n", static_cast<unsigned long long>(fp_after));
  std::printf("heterogeneous round trip: %s\n", fp_before == fp_after ? "PASS" : "FAIL");
  return fp_before == fp_after ? 0 : 1;
}
