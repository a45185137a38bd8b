// Content-addressed chunk store: the destination-side persistent cache
// behind dedup'd transfer (DESIGN.md §15).
//
// A chunk's address is the StreamDigest of its canonical body plus
// the body length — stable across runs because the canonical stream is
// deterministic for a given process state (logical block ids, not raw
// addresses). It is the digest the collect tap takes of the chunk (the
// stream's leaf digest d_i), so a manifest names chunks at no extra
// cost. Entries named by an earlier digest (FNV-1a, protocol v5) keep
// their record layout but can never be asked for again, so they age out
// by LRU. The store is a directory of addressed chunk files with an
// in-memory index and LRU eviction to a byte budget. Records are written
// by durable::write_new, open() drops torn entries, and load() checks the
// header against the address and re-derives the body digest, so a damaged
// or poisoned entry degrades to a cache miss, never a bad restore.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "common/hexdump.hpp"

namespace hpm::mig {

/// Stable content address of one canonical chunk body. The length rides
/// along so the wire codec can bound its decode and so two bodies that
/// collide on the 64-bit digest but differ in size never alias.
struct ChunkAddr {
  std::uint64_t digest = 0;
  std::uint32_t length = 0;

  friend bool operator==(const ChunkAddr&, const ChunkAddr&) = default;
};

/// Bounded persistent cache of addressed chunks.
///
/// Thread-safety: all public methods are mutex-guarded; one rx thread and
/// one tool process never share an instance, but nothing breaks if they
/// do within a process. Cross-process sharing of a directory is
/// coordinated with an advisory flock on `<dir>/.lock`, held for the
/// duration of open() and gc() — the two operations that scan or unlink
/// en masse and would otherwise race a concurrent GC. Individual put()s
/// stay lock-free across processes: entries are content-addressed (two
/// writers of the same address write identical bytes) and load() verifies
/// every body, so last-writer-wins is safe there.
class ChunkStore {
 public:
  /// Default byte budget: generous for the bench workloads, small enough
  /// that a runaway fleet cannot fill a disk.
  static constexpr std::uint64_t kDefaultBudget = 256ull << 20;

  explicit ChunkStore(std::string dir, std::uint64_t max_bytes = kDefaultBudget);
  ~ChunkStore();
  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  /// Create the directory if missing and index the entries already in it.
  /// A file whose name or size does not match its own header (a torn
  /// write from a crashed run) is unlinked, like the journal's torn-tail
  /// replay. Throws hpm::Error if the directory cannot be created/read.
  void open();

  /// Content address of a canonical chunk body.
  [[nodiscard]] static ChunkAddr address_of(std::span<const std::uint8_t> body);

  /// Index-only membership probe (no IO, no LRU touch).
  [[nodiscard]] bool contains(const ChunkAddr& addr) const;

  /// Read the addressed body into `out`. Checks the record's magic,
  /// digest and length against `addr` and recomputes the body digest; any
  /// mismatch (or a file of the wrong size) unlinks the entry and returns
  /// false — a corrupted cache entry is a miss, never bad bytes.
  bool load(const ChunkAddr& addr, Bytes& out);

  /// Insert (or LRU-touch) a body under its own computed address, and
  /// return that address. The record is fsync'd before put() returns; call
  /// sync_dir() once after a batch of puts to make the directory entries
  /// themselves durable. Evicts least-recently-used entries down to the
  /// byte budget.
  ChunkAddr put(std::span<const std::uint8_t> body);

  /// fsync the store directory (after a batch of puts or unlinks), the
  /// same way journal GC pins its unlinks.
  void sync_dir();

  /// Evict least-recently-used entries until the store holds at most
  /// `budget` bytes; fsyncs the directory. Returns the number of entries
  /// evicted. Holds the cross-process directory lock so two processes
  /// GC'ing the same store serialize instead of double-unlinking.
  std::size_t gc(std::uint64_t budget);

  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::uint64_t bytes() const;  ///< on-disk bytes incl. record headers
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Persist the outcome of one manifest negotiation (announced chunks,
  /// cache hits, misses) to `<dir>/last-run.stats` so `hpmtool
  /// chunk-cache` can report the hit ratio after the fact.
  void note_run(std::uint64_t manifest_chunks, std::uint64_t hits, std::uint64_t misses);

  struct RunStats {
    bool valid = false;
    std::uint64_t manifest_chunks = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  /// Read the stats file written by note_run(); valid=false if absent or
  /// malformed (never throws for a damaged stats file).
  [[nodiscard]] static RunStats read_run_stats(const std::string& dir);

 private:
  struct Entry {
    ChunkAddr addr;
    std::uint64_t file_bytes = 0;  ///< header + body on disk
    std::list<std::string>::iterator lru;
  };

  [[nodiscard]] static std::string file_name(const ChunkAddr& addr);
  /// Ensure `<dir>/.lock` is open and take the exclusive advisory flock;
  /// blocks until the peer process releases it. Returns false only if the
  /// lock file cannot be created (degrades to uncoordinated, like before).
  bool lock_dir();
  void unlock_dir();
  void touch_locked(Entry& e, const std::string& name);
  /// By value: callers pass the LRU tail's own string, which erasing the
  /// list node would otherwise destroy mid-call.
  void drop_locked(std::string name);
  void evict_to_locked(std::uint64_t budget);

  std::string dir_;
  std::uint64_t max_bytes_;
  int lock_fd_ = -1;  ///< `<dir>/.lock`, flock'd during open()/gc()
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> index_;  ///< keyed by entry file name
  std::list<std::string> lru_;                    ///< front = most recently used
  std::uint64_t bytes_ = 0;
};

}  // namespace hpm::mig
