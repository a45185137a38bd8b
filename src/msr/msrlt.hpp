// The MSR Lookup Table (MSRLT).
//
// Created in the process memory space at runtime to keep track of memory
// blocks, provide machine-independent identification, and support the
// address searches of data collection. It is the mapping table that
// translates between machine-specific addresses and machine-independent
// (block id, offset) pairs.
//
// One address index: a std::map from base address to block (paper §4.2's
// ordered address→block structure). Its nodes never move, so a stored
// MemoryBlock stays pointer-stable until it is unregistered. Every block
// is a non-empty range [base, base + size) whose end stays below 2^64 (it
// never wraps) and that overlaps no tracked block; anything else is
// rejected with MsrError.
//
// Complexity contract (paper §4.2): with n tracked blocks, one address
// search costs O(log n), so collecting n blocks costs O(n log n) in
// search time. Restoration does no address search per block — migrated
// blocks arrive with their logical id attached, so binding one is an
// O(1) expected probe of a flat id table (msr/id_table.hpp); its only
// counted searches are the one root check per variable record. Each
// block it creates is still inserted into the map (O(log n)
// comparisons), so restore is O(n) id-table updates plus n ordered
// inserts. Statistics counters expose the search term so benchmarks can
// validate the model directly.
//
// Besides the map the MSRLT owns the id table, the per-segment block
// counts, the visit-epoch marking, the statistics counters, and a small
// set-associative lookup cache consulted before the map.
#pragma once

#include <array>
#include <cstdint>
#include <map>

#include "common/error.hpp"
#include "msr/block.hpp"
#include "msr/id_table.hpp"
#include "obs/metrics.hpp"

namespace hpm::msr {

class Msrlt {
 public:
  Msrlt();

  Msrlt(const Msrlt&) = delete;
  Msrlt& operator=(const Msrlt&) = delete;

  /// Track a new block with a freshly assigned id. Throws hpm::MsrError if
  /// the byte range overlaps an existing block, size is zero, or base + size
  /// reaches 2^64.
  BlockId register_block(Segment seg, Address base, std::uint64_t size, ti::TypeId type,
                         std::uint32_t count, std::string name = {}) {
    return add(seg, base, size, type, count, std::move(name)).id;
  }

  /// register_block returning the stored block, which stays put until it
  /// is unregistered: callers that go on to fill the block keep this
  /// handle instead of looking its id up again. `owned` marks storage the
  /// tracking space allocated (MemorySpace::new_block).
  const MemoryBlock& add(Segment seg, Address base, std::uint64_t size, ti::TypeId type,
                         std::uint32_t count, std::string name = {}, bool owned = false);

  /// Track a new block under an externally chosen id (restoration binds
  /// the *source's* id to destination storage). Throws on id collision or
  /// range overlap.
  void register_with_id(BlockId id, Segment seg, Address base, std::uint64_t size,
                        ti::TypeId type, std::uint32_t count, std::string name = {});

  /// Stop tracking the block based at `base` (e.g. scope exit, free()).
  /// Throws hpm::MsrError if no block starts there.
  void unregister(Address base);

  /// Find the block containing `addr` (base <= addr < base + size).
  /// Returns nullptr for untracked addresses. Counts a search.
  ///
  /// Pointer collection has strong block locality (consecutive leaves of
  /// one block resolve into the same few blocks), so a small
  /// set-associative cache of recent containing blocks is consulted
  /// before the map search; hits count one search step under
  /// `msr.msrlt.cache_hits`.
  const MemoryBlock* find_containing(Address addr) const;

  /// Find a block by logical id; nullptr if unknown.
  const MemoryBlock* find_id(BlockId id) const;

  /// The block based exactly at `base`; nullptr if none starts there.
  /// Serves ownership checks (MigContext::heap_free), not collection, so
  /// it is not counted as a search and bypasses the lookup cache.
  const MemoryBlock* find_base(Address base) const noexcept {
    const auto it = by_addr_.find(base);
    return it == by_addr_.end() ? nullptr : &it->second;
  }

  /// Begin a new depth-first traversal: invalidates all previous marks in
  /// O(1) by bumping the epoch.
  void begin_traversal() noexcept { ++epoch_; }

  /// Mark the block visited in the current traversal; returns true the
  /// first time, false if already visited (the paper's duplicate guard).
  bool try_mark(BlockId id);
  /// try_mark for a block already in hand (the collector's resolve found
  /// it): no id lookup. `block` must be tracked by this MSRLT.
  bool try_mark(const MemoryBlock& block) noexcept;

  [[nodiscard]] std::size_t block_count() const noexcept { return by_addr_.size(); }
  /// Tracked blocks of one segment.
  [[nodiscard]] std::size_t block_count(Segment seg) const noexcept {
    return segment_blocks_[static_cast<int>(seg)];
  }

  /// Sum of the byte sizes of all tracked blocks. Collection pre-sizes
  /// its encoder from this total, so large heaps stream without
  /// reallocation churn.
  [[nodiscard]] std::uint64_t tracked_bytes() const noexcept { return tracked_bytes_; }

  /// Visit every tracked block in ascending base order (graph building,
  /// leak checks).
  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    for (const auto& [base, block] : by_addr_) fn(block);
  }

 private:
  MemoryBlock* insert_checked(MemoryBlock block);

  std::map<Address, MemoryBlock> by_addr_;
  IdTable<MemoryBlock> by_id_;
  std::uint64_t next_seq_[3] = {1, 1, 1};  // per segment
  std::size_t segment_blocks_[3] = {0, 0, 0};
  std::uint64_t epoch_ = 1;
  std::uint64_t tracked_bytes_ = 0;

  // Set-associative lookup cache for find_containing (the widened
  // successor of the seed's one-entry MRU). Entries hold positive results
  // only; unregistering any block invalidates the whole cache in O(1) by
  // bumping the cache epoch (block pointers are stable across inserts,
  // so inserts need no invalidation).
  static constexpr std::size_t kCacheWays = 4;
  static constexpr std::size_t kCacheSets = 64;
  struct CacheEntry {
    std::uint64_t epoch = 0;
    const MemoryBlock* block = nullptr;
  };
  static std::size_t cache_set(Address addr) noexcept {
    // 64-byte granules; fold high bits in so strided probes spread out.
    std::uint64_t g = addr >> 6;
    g ^= g >> 12;
    return static_cast<std::size_t>(g) & (kCacheSets - 1);
  }
  mutable std::array<CacheEntry, kCacheSets * kCacheWays> cache_{};
  mutable std::array<std::uint8_t, kCacheSets> cache_cursor_{};  // round-robin fill
  mutable std::uint64_t cache_epoch_ = 1;

  // `msr.msrlt.*` instruments (process-wide registry).
  obs::Counter& registrations_;
  obs::Counter& removals_;
  obs::Counter& searches_;
  obs::Counter& search_steps_;
  obs::Counter& cache_hits_;
  obs::Counter& id_lookups_;
  obs::Counter& marks_;
  obs::Gauge& blocks_gauge_;  ///< `msr.msrlt.blocks`, process-wide level
};

}  // namespace hpm::msr
