// hpmtool: command-line front door to the library's offline tooling.
//
//   hpmtool ckpt-info <file>          checkpoint preamble (sequence, size, arch)
//   hpmtool ckpt-dump <file> [-v]     decode the embedded migration stream
//   hpmtool inc-dump <prefix> <last>  merge an incremental chain and dump the
//                                     synthesized migration stream
//   hpmtool precc <decls.h> [--strict] [--codegen]
//                                     migration-safety report / registration code
//   hpmtool archs                     list the built-in architecture models
//   hpmtool recover <journal-dir> [txn]
//                                     arbitrate a crashed handoff from its
//                                     intent journals (DESIGN.md §11); pass the
//                                     txn id to pick one of several concurrent
//                                     sessions sharing the directory
//   hpmtool sessions <journal-dir>    list every transaction journaled in a
//                                     shared directory with its verdict
//   hpmtool journal-gc <journal-dir>  unlink the journal pairs of completed
//                                     transactions (directory fsync'd)
//   hpmtool journal-dump <file>       print every intact record of one journal
//   hpmtool chunk-cache <dir> [--gc <bytes>]
//                                     stats for a dedup chunk cache (entries,
//                                     bytes, last run's hit ratio); with --gc,
//                                     evict LRU entries down to the byte budget
//                                     (directory fsync'd)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "ckpt/incremental.hpp"
#include "common/durable_file.hpp"
#include "hpm/migrate.hpp"
#include "mig/chunk_store.hpp"
#include "mig/journal.hpp"
#include "msrm/dump.hpp"
#include "precc/codegen.hpp"
#include "precc/parser.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  hpmtool ckpt-info <file>\n"
               "  hpmtool ckpt-dump <file> [-v]\n"
               "  hpmtool inc-dump <prefix> <last-seq>\n"
               "  hpmtool precc <decls.h> [--strict] [--codegen]\n"
               "  hpmtool archs\n"
               "  hpmtool recover <journal-dir> [txn]\n"
               "  hpmtool sessions <journal-dir>\n"
               "  hpmtool journal-gc <journal-dir>\n"
               "  hpmtool journal-dump <file>\n"
               "  hpmtool chunk-cache <dir> [--gc <bytes>]\n");
  return 2;
}

int cmd_ckpt_info(const char* path) {
  const hpm::ckpt::CheckpointInfo info = hpm::ckpt::inspect(path);
  std::printf("checkpoint   : %s\n", path);
  std::printf("sequence     : %llu\n", static_cast<unsigned long long>(info.sequence));
  std::printf("state bytes  : %llu\n", static_cast<unsigned long long>(info.state_bytes));
  std::printf("source arch  : %s\n", info.source_arch.c_str());
  return 0;
}

int cmd_ckpt_dump(const char* path, bool verbose) {
  const hpm::Bytes file = hpm::durable::read_all(path);
  // Unwrap the checkpoint preamble by hand: magic, sequence, length.
  hpm::xdr::Decoder dec(file);
  if (dec.get_u32() != 0x48434B50) throw hpm::WireError("not a checkpoint file");
  dec.get_u64();  // sequence
  const std::uint32_t len = dec.get_u32();
  hpm::Bytes stream(len);
  dec.get_bytes(stream.data(), len);
  hpm::msrm::DumpOptions options;
  options.show_primitive_values = verbose;
  std::fputs(hpm::msrm::dump_stream(stream, options).c_str(), stdout);
  return 0;
}

int cmd_precc(const char* path, bool strict, bool codegen) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  hpm::ti::TypeTable table;
  hpm::precc::Parser parser(table, strict);
  const hpm::precc::ParseResult result = parser.parse(buf.str());
  if (codegen) {
    std::fputs(hpm::precc::generate_registration(table, result).c_str(), stdout);
  } else {
    std::fputs(hpm::precc::report(table, result).c_str(), stdout);
  }
  return result.clean() ? 0 : 1;
}

int cmd_recover(const char* dir, const char* txn_arg) {
  const hpm::RecoveryVerdict v =
      txn_arg != nullptr
          ? hpm::recover(dir, std::strtoull(txn_arg, nullptr, 10))
          : hpm::recover(dir);
  std::printf("journal dir  : %s\n", dir);
  std::printf("transaction  : %llu\n", static_cast<unsigned long long>(v.txn_id));
  std::printf("owner        : %s\n", hpm::txn_owner_name(v.owner));
  if (v.owner == hpm::TxnOwner::Destination) {
    // A failed-over transaction may have touched several destinations;
    // the incarnation (fencing token) names the one that owns the commit.
    std::printf("incarnation  : %u%s\n", v.incarnation,
                v.incarnation <= 1 ? " (primary)" : " (failover standby)");
  }
  if (v.committed_destinations > 1) {
    std::printf("WARNING      : %d destinations logged Committed; the highest "
                "incarnation fences the rest\n",
                v.committed_destinations);
  }
  std::printf("completed    : %s\n", v.completed ? "yes" : "no");
  std::printf("reason       : %s\n", v.reason.c_str());
  // Foreign matter in the directory never poisons arbitration, but a human
  // running recovery should see what was stepped over: unrelated files and
  // torn zero-length journals are reported, not silently ignored.
  std::vector<std::string> skipped;
  hpm::mig::list_journaled_txns(dir, &skipped);
  for (const std::string& s : skipped) {
    std::printf("skipped      : %s\n", s.c_str());
  }
  // Exit status mirrors the verdict so scripts can branch on it:
  // 0 = source owns (resume/restart there), 3 = destination owns,
  // 4 = no such transaction in either journal (nothing to arbitrate —
  // distinct from "source owns" so automation never restarts a workload
  // it merely misspelled the txn id of).
  if (v.owner == hpm::TxnOwner::None) return 4;
  return v.owner == hpm::TxnOwner::Destination ? 3 : 0;
}

int cmd_sessions(const char* dir) {
  const std::vector<std::uint64_t> txns = hpm::mig::list_journaled_txns(dir);
  if (txns.empty()) {
    std::printf("no journaled transactions in %s\n", dir);
    return 0;
  }
  std::printf("%-22s %-12s %-9s reason\n", "txn", "owner", "completed");
  for (const std::uint64_t txn : txns) {
    const hpm::RecoveryVerdict v = hpm::recover(dir, txn);
    std::printf("%-22llu %-12s %-9s %s\n", static_cast<unsigned long long>(txn),
                hpm::txn_owner_name(v.owner), v.completed ? "yes" : "no",
                v.reason.c_str());
  }
  return 0;
}

int cmd_journal_gc(const char* dir) {
  const std::vector<std::uint64_t> swept = hpm::mig::gc_completed_txn_journals(dir);
  for (const std::uint64_t txn : swept) {
    std::printf("swept txn %llu (completed)\n", static_cast<unsigned long long>(txn));
  }
  std::printf("%zu completed transaction(s) garbage-collected from %s\n", swept.size(),
              dir);
  return 0;
}

int cmd_journal_dump(const char* path) {
  for (const hpm::mig::JournalRecord& r : hpm::mig::Journal::replay(path)) {
    std::printf("%-9s txn=%llu digest=%016llx inc=%u%s%s\n",
                hpm::mig::journal_record_name(r.type),
                static_cast<unsigned long long>(r.txn_id),
                static_cast<unsigned long long>(r.digest), r.incarnation,
                r.note.empty() ? "" : "  ", r.note.c_str());
  }
  return 0;
}

int cmd_chunk_cache(const char* dir, const char* gc_budget) {
  hpm::mig::ChunkStore store(dir);
  store.open();  // unlinks torn entries, exactly like a migration would
  if (gc_budget != nullptr) {
    const std::uint64_t budget = std::strtoull(gc_budget, nullptr, 0);
    const std::size_t evicted = store.gc(budget);
    std::printf("evicted %zu entr%s to a %llu-byte budget\n", evicted,
                evicted == 1 ? "y" : "ies", static_cast<unsigned long long>(budget));
  }
  std::printf("cache dir    : %s\n", store.dir().c_str());
  std::printf("entries      : %zu\n", store.entries());
  std::printf("bytes        : %llu\n", static_cast<unsigned long long>(store.bytes()));
  const hpm::mig::ChunkStore::RunStats stats = hpm::mig::ChunkStore::read_run_stats(dir);
  if (stats.valid && stats.manifest_chunks > 0) {
    std::printf("last run     : %llu chunk(s) announced, %llu hit, %llu missed "
                "(hit ratio %.1f%%)\n",
                static_cast<unsigned long long>(stats.manifest_chunks),
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                100.0 * static_cast<double>(stats.hits) /
                    static_cast<double>(stats.manifest_chunks));
  } else {
    std::printf("last run     : (no manifest negotiation recorded)\n");
  }
  return 0;
}

int cmd_archs() {
  std::printf("%-18s %-7s %5s %5s %5s %9s\n", "name", "order", "int", "long", "ptr",
              "dbl-align");
  for (const auto name : hpm::xdr::arch_names()) {
    const hpm::xdr::ArchDescriptor& a = hpm::xdr::arch_by_name(name);
    std::printf("%-18s %-7s %5u %5u %5u %9u\n", a.name.c_str(),
                a.is_big_endian() ? "big" : "little",
                a.layout(hpm::xdr::PrimKind::Int).size,
                a.layout(hpm::xdr::PrimKind::Long).size, a.pointer.size,
                a.layout(hpm::xdr::PrimKind::Double).align);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "ckpt-info") == 0 && argc >= 3) return cmd_ckpt_info(argv[2]);
    if (std::strcmp(argv[1], "ckpt-dump") == 0 && argc >= 3) {
      return cmd_ckpt_dump(argv[2], argc > 3 && std::strcmp(argv[3], "-v") == 0);
    }
    if (std::strcmp(argv[1], "inc-dump") == 0 && argc >= 4) {
      const hpm::Bytes stream =
          hpm::ckpt::synthesize_stream(argv[2], std::strtoull(argv[3], nullptr, 10));
      std::fputs(hpm::msrm::dump_stream(stream).c_str(), stdout);
      return 0;
    }
    if (std::strcmp(argv[1], "precc") == 0 && argc >= 3) {
      bool strict = false, codegen = false;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--strict") == 0) strict = true;
        if (std::strcmp(argv[i], "--codegen") == 0) codegen = true;
      }
      return cmd_precc(argv[2], strict, codegen);
    }
    if (std::strcmp(argv[1], "archs") == 0) return cmd_archs();
    if (std::strcmp(argv[1], "recover") == 0 && argc >= 3) {
      return cmd_recover(argv[2], argc > 3 ? argv[3] : nullptr);
    }
    if (std::strcmp(argv[1], "sessions") == 0 && argc >= 3) {
      return cmd_sessions(argv[2]);
    }
    if (std::strcmp(argv[1], "journal-gc") == 0 && argc >= 3) {
      return cmd_journal_gc(argv[2]);
    }
    if (std::strcmp(argv[1], "journal-dump") == 0 && argc >= 3) {
      return cmd_journal_dump(argv[2]);
    }
    if (std::strcmp(argv[1], "chunk-cache") == 0 && argc >= 3) {
      const char* budget = nullptr;
      if (argc >= 5 && std::strcmp(argv[3], "--gc") == 0) budget = argv[4];
      return cmd_chunk_cache(argv[2], budget);
    }
  } catch (const hpm::Error& e) {
    std::fprintf(stderr, "hpmtool: %s\n", e.what());
    return 1;
  }
  return usage();
}
