// Crash states of the disk: every state a crash can leave, rebuilt and
// checked, in the manner of ALICE (Pillai et al., OSDI 2014, "All File
// Systems Are Not Created Equal").
//
// A durable::Recorder logs every step the durable-file helper takes
// (create, truncate, write, fsync, rename, unlink, directory fsync) and
// the moment each operation returns. For every prefix of that log, the
// model below builds each state POSIX allows a crash to leave:
//   - bytes written before an fsync of their file are kept;
//   - a create, rename or unlink made before an fsync of its directory is
//     kept;
//   - every other write is cut to none, half or all of its bytes, and
//     every other create, truncate, rename or unlink happens or does not,
//     each independently of the rest.
// When a prefix leaves more than 10 operations unsynced, the full product
// is too large: each one is then varied alone against the all-kept state,
// and the all-dropped state is added. Every state is written out under the
// run's own directory and checked against what the program promised by
// the cut:
//   - every journal record whose append returned is replayed;
//   - recover() names a destination only when a Commit or Committed
//     record on disk backs it, and never the source once the source's
//     Commit append returned;
//   - a transaction whose journal GC returned keeps no journals;
//   - a checkpoint path reads as the last file replace() returned for it
//     or the one in flight, never a torn one, and restart_incremental(k)
//     works for every capture k that returned;
//   - the chunk store opens, and every entry it indexes loads its exact
//     body.
// Directories the runs write into are taken to exist durably (the tests
// create them), and the file system is taken to keep a write's prefix
// when it cuts one.
//
// The same log pins the fsyncs of the dedup path the benchmark's `rerun`
// workload times: one file fsync per chunk-store put plus one for the
// stats file, and one directory fsync per migration.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "apps/bitonic.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/incremental.hpp"
#include "common/durable_file.hpp"
#include "hpm/migrate.hpp"
#include "mig/annotate.hpp"
#include "mig/chunk_store.hpp"
#include "mig/journal.hpp"

namespace hpm::mig {
namespace {

namespace fs = std::filesystem;
using durable::Event;
using Kind = Event::Kind;

constexpr std::size_t kFullProductLimit = 10;

std::string norm(const std::string& path) {
  std::string out = fs::path(path).lexically_normal().string();
  while (out.size() > 1 && out.back() == '/') out.pop_back();
  return out;
}

std::string parent(const std::string& path) { return fs::path(path).parent_path().string(); }

/// One run's log: the files present when recording began (durable by
/// then), the directories it writes into, and every logged event.
struct Log {
  std::map<std::string, Bytes> initial;
  std::set<std::string> dirs;
  std::vector<Event> events;
};

Bytes slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// Run `body` with a recorder installed and return its log. `root` is the
/// run's own directory; whatever is in it already is the initial state.
Log record(const fs::path& root, const std::function<void(const durable::Recorder&)>& body) {
  Log log;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    const std::string path = norm(entry.path().string());
    if (entry.is_directory()) log.dirs.insert(path);
    if (entry.is_regular_file()) log.initial[path] = slurp(entry.path());
  }
  log.dirs.insert(norm(root.string()));
  std::mutex mu;  // both hosts of a migration write
  const durable::Recorder recorder = [&](Event event) {
    std::lock_guard lk(mu);
    log.events.push_back(std::move(event));
  };
  durable::set_recorder(&recorder);
  try {
    body(recorder);
  } catch (...) {
    durable::set_recorder(nullptr);
    throw;
  }
  durable::set_recorder(nullptr);
  for (Event& e : log.events) {
    e.path = norm(e.path);
    if (e.kind == Kind::Rename) e.to = norm(e.to);
    log.dirs.insert(e.kind == Kind::SyncDir ? e.path : parent(e.path));
  }
  return log;
}

/// What the program had been told by the cut: the events before it.
struct Cut {
  const std::vector<Event>& events;
  std::size_t at = 0;

  /// Returned events of operation `op` on `path` before the cut.
  [[nodiscard]] std::vector<const Event*> returned(const std::string& op,
                                                   const std::string& path) const {
    std::vector<const Event*> out;
    for (std::size_t i = 0; i < at; ++i) {
      const Event& e = events[i];
      if (e.kind == Kind::Returned && e.to == op && e.path == path) out.push_back(&e);
    }
    return out;
  }
  [[nodiscard]] bool unlinked(const std::string& path) const {
    for (std::size_t i = 0; i < at; ++i) {
      if (events[i].kind == Kind::Unlink && events[i].path == path) return true;
    }
    return false;
  }
};

/// A check of one crash state: empty when it holds, else what broke.
using Check = std::function<std::string(const Cut&)>;

/// The crash-state model of one log, materialized under `root`.
class CrashModel {
 public:
  CrashModel(const Log& log, fs::path root) : log_(log), root_(std::move(root)) {
    // Resolve every step to the inode it touched in the uncut run.
    std::map<std::string, std::size_t> names;
    for (const auto& [path, bytes] : log_.initial) {
      names[path] = initial_.size();
      initial_.push_back(path);
    }
    next_inode_ = initial_.size();
    steps_.resize(log_.events.size());
    for (std::size_t i = 0; i < log_.events.size(); ++i) {
      const Event& e = log_.events[i];
      Step& s = steps_[i];
      switch (e.kind) {
        case Kind::Create:
          s.inode = next_inode_++;
          names[e.path] = s.inode;
          s.dir = parent(e.path);
          break;
        case Kind::Truncate:
        case Kind::Write:
        case Kind::SyncFile: s.inode = names.at(e.path); break;
        case Kind::Rename:
          s.inode = names.at(e.path);
          names.erase(e.path);
          names[e.to] = s.inode;
          s.dir = parent(e.path);
          break;
        case Kind::Unlink:
          s.inode = names.at(e.path);
          names.erase(e.path);
          s.dir = parent(e.path);
          break;
        case Kind::SyncDir: s.dir = e.path; break;
        case Kind::Returned: break;
      }
    }
  }

  /// Build every crash state of the first `cut` events in turn and run
  /// `check` on each. Returns the number of states; `failures` collects
  /// the first few that broke.
  std::size_t visit(std::size_t cut, const Check& check, std::vector<std::string>& failures) {
    // The steps a crash may still undo, and how many outcomes each has.
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < cut; ++i) {
      if (!synced(i, cut)) open.push_back(i);
    }
    auto outcomes = [&](std::size_t i) { return log_.events[i].kind == Kind::Write ? 3 : 2; };
    std::vector<int> keep(cut);
    for (std::size_t i = 0; i < cut; ++i) keep[i] = outcomes(i) - 1;  // all kept

    std::size_t states = 0;
    auto run = [&] {
      ++states;
      materialize(cut, keep);
      std::string broke;
      try {
        broke = check(Cut{log_.events, cut});
      } catch (const std::exception& e) {
        broke = std::string("check threw: ") + e.what();
      }
      if (!broke.empty() && failures.size() < 5) {
        failures.push_back("cut after " + std::to_string(cut) + " of " +
                           std::to_string(log_.events.size()) + " events, " +
                           describe(open, keep) + ": " + broke);
      }
    };
    if (open.size() <= kFullProductLimit) {
      // Every combination: a mixed-radix counter over the open steps.
      for (const std::size_t i : open) keep[i] = 0;
      for (;;) {
        run();
        std::size_t d = 0;
        while (d < open.size() && ++keep[open[d]] == outcomes(open[d])) keep[open[d++]] = 0;
        if (d == open.size()) break;
      }
    } else {
      run();  // all kept
      for (const std::size_t i : open) {
        for (int v = 0; v < outcomes(i) - 1; ++v) {
          keep[i] = v;
          run();
        }
        keep[i] = outcomes(i) - 1;
      }
      for (const std::size_t i : open) keep[i] = 0;
      run();  // all dropped
    }
    return states;
  }

 private:
  struct Step {
    std::size_t inode = 0;
    std::string dir;  ///< the directory a create/rename/unlink changes, or SyncDir's
  };

  /// Whether step `i` is durable by the cut: a later fsync of its file
  /// (data) or of its directory (names) before the cut.
  [[nodiscard]] bool synced(std::size_t i, std::size_t cut) const {
    const Kind kind = log_.events[i].kind;
    if (kind == Kind::SyncFile || kind == Kind::SyncDir || kind == Kind::Returned) return true;
    const bool data = kind == Kind::Write || kind == Kind::Truncate;
    for (std::size_t j = i + 1; j < cut; ++j) {
      const Kind k = log_.events[j].kind;
      if (data && k == Kind::SyncFile && steps_[j].inode == steps_[i].inode) return true;
      if (!data && k == Kind::SyncDir && steps_[j].dir == steps_[i].dir) return true;
    }
    return false;
  }

  void materialize(std::size_t cut, const std::vector<int>& keep) const {
    std::map<std::size_t, Bytes> content;
    std::map<std::string, std::size_t> names;
    for (std::size_t n = 0; n < initial_.size(); ++n) {
      content[n] = log_.initial.at(initial_[n]);
      names[initial_[n]] = n;
    }
    for (std::size_t i = 0; i < cut; ++i) {
      const Event& e = log_.events[i];
      const Step& s = steps_[i];
      if (keep[i] == 0 && e.kind != Kind::Write) continue;  // dropped
      switch (e.kind) {
        case Kind::Create: names[e.path] = s.inode; break;
        case Kind::Truncate: content[s.inode].clear(); break;
        case Kind::Write: {
          const std::size_t len = e.data.size() * static_cast<std::size_t>(keep[i]) / 2;
          Bytes& bytes = content[s.inode];
          if (len > 0 && bytes.size() < e.offset + len) bytes.resize(e.offset + len);
          std::copy_n(e.data.begin(), len, bytes.begin() + static_cast<long>(e.offset));
          break;
        }
        case Kind::Rename: {
          const auto it = names.find(e.path);
          if (it != names.end() && it->second == s.inode) {
            names.erase(it);
            names[e.to] = s.inode;
          }
          break;
        }
        case Kind::Unlink: {
          const auto it = names.find(e.path);
          if (it != names.end() && it->second == s.inode) names.erase(it);
          break;
        }
        case Kind::SyncFile:
        case Kind::SyncDir:
        case Kind::Returned: break;
      }
    }
    fs::remove_all(root_);
    for (const std::string& dir : log_.dirs) fs::create_directories(dir);
    for (const auto& [path, inode] : names) {
      const Bytes& bytes = content[inode];
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
  }

  [[nodiscard]] std::string describe(const std::vector<std::size_t>& open,
                                     const std::vector<int>& keep) const {
    static const char* const kNames[] = {"create",   "truncate", "write",  "fsync",
                                         "rename",   "unlink",   "dirsync", "returned"};
    std::string out = "open steps {";
    for (const std::size_t i : open) {
      const Event& e = log_.events[i];
      out += " " + std::string(kNames[static_cast<int>(e.kind)]) + " " +
             fs::path(e.path).filename().string() + "=" +
             (e.kind == Kind::Write ? (keep[i] == 2 ? "all" : keep[i] == 1 ? "half" : "none")
                                    : (keep[i] != 0 ? "kept" : "dropped"));
    }
    return out + " }";
  }

  const Log& log_;
  fs::path root_;
  std::vector<std::string> initial_;  ///< initial inode n's path
  std::size_t next_inode_ = 0;
  std::vector<Step> steps_;
};

/// Every cut of `log`, every crash state of each, `check` on all of them.
std::size_t enumerate(const char* run, const Log& log, const fs::path& root,
                      const Check& check) {
  CrashModel model(log, root);
  std::vector<std::string> failures;
  std::size_t states = 0;
  for (std::size_t cut = 0; cut <= log.events.size(); ++cut) {
    states += model.visit(cut, check, failures);
  }
  std::printf("%-28s %4zu events, %6zu crash states\n", run, log.events.size(), states);
  for (const std::string& f : failures) ADD_FAILURE() << run << ": " << f;
  return states;
}

// --- the workloads ----------------------------------------------------------

RunOptions small_bitonic(apps::BitonicResult* result) {
  RunOptions options;
  options.transport = Transport::Memory;
  options.pipeline = true;
  options.chunk_bytes = 512;  // a ~6 KB stream in a dozen chunks
  options.register_types = apps::bitonic_register_types;
  options.program = [result](MigContext& ctx) { apps::bitonic_program(ctx, 6, 9, result); };
  options.migrate_at_poll = 50;
  return options;
}

/// Sums i*i over [0, n) into a heap array, one poll per step.
void sum_program(MigContext& ctx, int n, long* out) {
  HPM_FUNCTION(ctx);
  long* acc;
  int i;
  HPM_LOCAL(ctx, acc);
  HPM_LOCAL(ctx, i);
  HPM_LOCAL(ctx, n);
  HPM_BODY(ctx);
  acc = ctx.heap_alloc<long>(4, "acc");
  for (i = 0; i < 4; ++i) acc[i] = 0;
  for (i = 0; i < n; ++i) {
    HPM_POLL(ctx, 1);
    acc[i % 4] += static_cast<long>(i) * i;
  }
  *out = acc[0] + acc[1] + acc[2] + acc[3];
  ctx.heap_free(acc);
  HPM_BODY_END(ctx);
}

constexpr int kSteps = 24;

long expected_sum() {
  long s = 0;
  for (int i = 0; i < kSteps; ++i) s += static_cast<long>(i) * i;
  return s;
}

void no_types(ti::TypeTable&) {}

// --- the checks -------------------------------------------------------------

bool same(const JournalRecord& a, const JournalRecord& b) {
  return a.type == b.type && a.txn_id == b.txn_id && a.digest == b.digest &&
         a.incarnation == b.incarnation && a.note == b.note;
}

/// Every record whose append returned is replayed, and every replayed
/// record is the one appended there. `final` holds each journal's records
/// after the uncut run.
std::string check_journals(const Cut& cut,
                           const std::map<std::string, std::vector<JournalRecord>>& final) {
  for (const auto& [path, records] : final) {
    if (cut.unlinked(path)) continue;  // removed by GC: its promise ended
    const std::size_t promised = cut.returned("append", path).size();
    const std::vector<JournalRecord> got = Journal::replay(path);
    if (got.size() < promised) {
      return fs::path(path).filename().string() + " replays " + std::to_string(got.size()) +
             " records, but " + std::to_string(promised) + " appends returned";
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (i >= records.size() || !same(got[i], records[i])) {
        return fs::path(path).filename().string() + " replays a record never appended";
      }
    }
  }
  return {};
}

/// recover() names a destination only when a Commit or Committed record on
/// disk backs it, and never the source once the source's Commit returned.
std::string check_owner(const Cut& cut, const std::string& journal_dir, bool commit_returned) {
  for (std::size_t i = 0; i < cut.at; ++i) {
    const Event& e = cut.events[i];
    // A journal record's type byte follows its 4-byte magic.
    if (e.kind == Kind::Returned && e.to == "append" && e.data.size() > 4 &&
        fs::path(e.path).filename().string().starts_with("source-") &&
        e.data[4] == static_cast<std::uint8_t>(JournalRecordType::Commit)) {
      commit_returned = true;
    }
  }
  bool backed = false;
  for (const auto& entry : fs::directory_iterator(journal_dir)) {
    const std::string name = entry.path().filename().string();
    const JournalRecordType decisive =
        name.starts_with("source-") ? JournalRecordType::Commit : JournalRecordType::Committed;
    for (const JournalRecord& r : Journal::replay(entry.path().string())) {
      backed = backed || r.type == decisive;
    }
  }
  const RecoveryVerdict v = recover(journal_dir);
  if (v.committed_destinations > 1) return "two destinations committed: " + v.reason;
  if (v.owner == TxnOwner::Destination && !backed) {
    return "recover() names the destination with no Commit or Committed on disk: " + v.reason;
  }
  if (commit_returned && v.owner == TxnOwner::Source) {
    return "recover() names the source after its Commit append returned: " + v.reason;
  }
  return {};
}

/// `path` reads as the last file replace() returned for it, or the one in
/// flight; missing only before the first returned.
std::string check_replaced(const Cut& cut, const std::string& path) {
  const std::vector<const Event*> done = cut.returned("replace", path);
  const Bytes* in_flight = nullptr;
  for (std::size_t i = cut.at; i < cut.events.size() && in_flight == nullptr; ++i) {
    const Event& e = cut.events[i];
    if (e.kind == Kind::Returned && e.to == "replace" && e.path == path) in_flight = &e.data;
  }
  const std::string name = fs::path(path).filename().string();
  if (!fs::exists(path)) {
    return done.empty() ? std::string() : name + " is missing after its replace() returned";
  }
  const Bytes bytes = durable::read_all(path);
  if (!done.empty() && bytes == done.back()->data) return {};
  if (in_flight != nullptr && bytes == *in_flight) return {};
  return name + " is torn or stale (" + std::to_string(bytes.size()) + " bytes, " +
         std::to_string(done.size()) + " replaces returned)";
}

// --- the runs ---------------------------------------------------------------

class DiskCrash : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() / ("hpm_disk_crash_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// A fresh directory for one run.
  fs::path run_dir(const std::string& name) {
    const fs::path dir = root_ / name;
    fs::create_directories(dir);
    return dir;
  }

  fs::path root_;
};

std::map<std::string, std::vector<JournalRecord>> journals_in(const std::string& dir) {
  std::map<std::string, std::vector<JournalRecord>> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    out[norm(entry.path().string())] = Journal::replay(entry.path().string());
  }
  return out;
}

TEST_F(DiskCrash, EveryCrashStateKeepsEveryPromise) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t states = 0;

  {  // A journaled Memory migration with small chunks.
    const fs::path dir = run_dir("migration");
    const std::string journals = (dir / "journals").string();
    fs::create_directories(journals);
    apps::BitonicResult result;
    RunOptions options = small_bitonic(&result);
    options.journal_dir = journals;
    const Log log = record(dir, [&](const durable::Recorder&) {
      ASSERT_EQ(run_migration(options).outcome, MigrationOutcome::Migrated);
    });
    ASSERT_TRUE(result.ok());
    const auto final = journals_in(journals);
    ASSERT_EQ(final.size(), 2u);
    states += enumerate("journaled migration", log, dir, [&](const Cut& cut) -> std::string {
      std::string broke = check_journals(cut, final);
      return broke.empty() ? check_owner(cut, journals, false) : broke;
    });
  }

  {  // Journal GC of a completed transaction.
    const fs::path dir = run_dir("gc");
    const std::string journals = (dir / "journals").string();
    fs::create_directories(journals);
    apps::BitonicResult result;
    RunOptions options = small_bitonic(&result);
    options.journal_dir = journals;
    ASSERT_EQ(run_migration(options).outcome, MigrationOutcome::Migrated);
    const Log log = record(dir, [&](const durable::Recorder& recorder) {
      ASSERT_EQ(gc_completed_txn_journals(journals).size(), 1u);
      Event swept;
      swept.kind = Kind::Returned;
      swept.path = norm(journals);
      swept.to = "gc";
      recorder(std::move(swept));
    });
    states += enumerate("journal gc", log, dir, [&](const Cut& cut) -> std::string {
      const bool swept = !cut.returned("gc", norm(journals)).empty();
      if (swept && !list_journaled_txns(journals).empty()) {
        return "a swept transaction still has journals";
      }
      return check_owner(cut, journals, /*commit_returned=*/true);
    });
  }

  {  // Two checkpoint_runs to one path.
    const fs::path dir = run_dir("checkpoint");
    const std::string path = (dir / "sum.ckpt").string();
    const Log log = record(dir, [&](const durable::Recorder&) {
      long out = 0;
      auto program = [&out](MigContext& ctx) { sum_program(ctx, kSteps, &out); };
      ckpt::checkpoint_run(no_types, program, path, 5, 1);
      ckpt::checkpoint_run(no_types, program, path, 17, 2);
      ASSERT_EQ(out, expected_sum());
    });
    states += enumerate("two checkpoints, one path", log, dir, [&](const Cut& cut) {
      std::string broke = check_replaced(cut, norm(path));
      if (broke.empty() && fs::exists(path)) (void)ckpt::inspect(path);
      return broke;
    });
  }

  {  // A 3-capture incremental chain.
    const fs::path dir = run_dir("incremental");
    const std::string prefix = (dir / "chain").string();
    const Log log = record(dir, [&](const durable::Recorder&) {
      ti::TypeTable types;
      MigContext ctx(types);
      ckpt::IncrementalCheckpointer checkpointer(prefix);
      ctx.set_poll_observer([&](MigContext& c) {
        if (c.poll_count() % 8 == 3) checkpointer.capture(c);
      });
      long out = 0;
      sum_program(ctx, kSteps, &out);
      ASSERT_EQ(checkpointer.next_sequence(), 3u);
    });
    states += enumerate("3-capture incremental chain", log, dir, [&](const Cut& cut) {
      for (std::uint64_t k = 0; k < 3; ++k) {
        const std::string file = norm(prefix + "." + std::to_string(k));
        std::string broke = check_replaced(cut, file);
        if (!broke.empty()) return broke;
        if (cut.returned("replace", file).empty()) continue;
        long out = 0;
        ckpt::restart_incremental(
            no_types, [&out](MigContext& ctx) { sum_program(ctx, kSteps, &out); }, prefix, k);
        if (out != expected_sum()) return "capture " + std::to_string(k) + " restarts wrong";
      }
      return std::string();
    });
  }

  {  // A chunk-store cold fill: a dedup migration into an empty store.
    const fs::path dir = run_dir("store");
    const std::string store_dir = (dir / "chunks").string();
    fs::create_directories(store_dir);
    apps::BitonicResult result;
    RunOptions options = small_bitonic(&result);
    options.chunk_cache_dir = store_dir;
    const Log log = record(dir, [&](const durable::Recorder&) {
      ASSERT_EQ(run_migration(options).outcome, MigrationOutcome::Migrated);
    });
    std::vector<Bytes> bodies;  // every body put, header stripped
    for (const Event& e : log.events) {
      if (e.kind == Kind::Returned && e.to == "write_new" && e.path.ends_with(".chunk")) {
        bodies.emplace_back(e.data.begin() + 16, e.data.end());
      }
    }
    ASSERT_GT(bodies.size(), kFullProductLimit) << "the fill must outgrow the full product";
    states += enumerate("chunk-store cold fill", log, dir, [&](const Cut&) -> std::string {
      ChunkStore store(store_dir);
      store.open();
      std::size_t indexed = 0;
      for (const Bytes& body : bodies) {
        const ChunkAddr addr = ChunkStore::address_of(body);
        if (!store.contains(addr)) continue;
        ++indexed;
        Bytes out;
        if (!store.load(addr, out) || out != body) {
          return "an indexed entry does not load its body";
        }
      }
      if (indexed != store.entries()) return "the store indexes an entry never put";
      return {};
    });
  }

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("disk crash states: %zu in %.1f s\n", states, seconds);
}

/// Events of `kind` in `log`.
std::size_t count(const Log& log, Kind kind) {
  std::size_t n = 0;
  for (const Event& e : log.events) n += e.kind == kind ? 1 : 0;
  return n;
}

TEST_F(DiskCrash, TheDedupPathFsyncsOncePerPutPlusTheStatsFileAndOneDirectory) {
  const fs::path dir = run_dir("fsyncs");
  apps::BitonicResult result;
  RunOptions options = small_bitonic(&result);
  options.chunk_cache_dir = (dir / "chunks").string();

  MigrationReport cold;
  const Log fill =
      record(dir, [&](const durable::Recorder&) { cold = run_migration(options); });
  ASSERT_EQ(cold.outcome, MigrationOutcome::Migrated);
  ASSERT_GT(cold.dedup_miss_chunks, 0u);
  EXPECT_EQ(count(fill, Kind::SyncFile), cold.dedup_miss_chunks + 1)
      << "one per put, plus the stats file";
  EXPECT_EQ(count(fill, Kind::SyncDir), 1u);

  MigrationReport rerun;
  const Log hit =
      record(dir, [&](const durable::Recorder&) { rerun = run_migration(options); });
  ASSERT_EQ(rerun.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(rerun.dedup_miss_chunks, 0u);
  EXPECT_EQ(count(hit, Kind::SyncFile), 1u) << "the stats file only";
  EXPECT_EQ(count(hit, Kind::SyncDir), 1u);
}

}  // namespace
}  // namespace hpm::mig
