// AddressIndex: the MSRLT's address→block lookup behind a small seam.
//
// The MSRLT's collection-side cost is the address search (paper §4.2: the
// O(log n) term of data collection). This interface isolates the search
// structure so strategies can be swapped and benchmarked without touching
// the engines: Collector/Restorer/ckpt reach blocks only through Msrlt,
// and Msrlt reaches storage only through an AddressIndex.
//
// Implementations:
//  * OrderedMap / LinearScan — the reference `std::map` structure (and its
//    deliberately degraded linear ablation), exactly the seed behavior.
//  * FlatArray — a flat sorted interval array searched with a branchless
//    binary search. Inserts append to an unsorted pending run and are
//    merged amortized; erases tombstone in place and are compacted
//    amortized, so searches touch one contiguous array. Mass registration
//    is NOT cheap: every insert's overlap check scans the whole pending
//    run (up to 64 + n/8 entries), so registering n blocks in a row (a
//    restore) costs O(n^2) — a bitonic 2^17 restore runs ~10x slower
//    than under OrderedMap. Fixing that check is open work.
//
// All implementations guarantee:
//  * MemoryBlock storage is pointer-stable until the block is erased
//    (engines hold MemoryBlock* across subsequent inserts).
//  * for_each visits blocks in ascending base-address order.
//  * insert rejects zero-sized blocks and byte-range overlaps with
//    hpm::MsrError.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "msr/block.hpp"

namespace hpm::msr {

/// Search-strategy ablation knob (bench/ablation_msrlt): the paper's
/// design implies an ordered structure; LinearScan shows what the
/// collection term degrades to without one; FlatArray is the
/// hardware-bound replacement (flat sorted interval array, branchless
/// binary search).
enum class SearchStrategy : std::uint8_t { OrderedMap, LinearScan, FlatArray };

const char* search_strategy_name(SearchStrategy s) noexcept;

/// Immutable snapshot of an AddressIndex: a dense, sorted interval array
/// safe for concurrent lookups from many threads (parallel collection).
/// Every block gets a dense *slot* in [0, size()) in base-address order —
/// the natural key for visited/ownership bitmaps.
class FrozenIndex {
 public:
  struct Entry {
    Address base = 0;
    std::uint64_t size = 0;
    const MemoryBlock* block = nullptr;
  };

  FrozenIndex() = default;
  /// `entries` must be sorted by base and non-overlapping.
  explicit FrozenIndex(std::vector<Entry> entries);

  /// Containing-block search (branchless binary search); adds the number
  /// of probe steps to `steps`. nullptr for untracked addresses.
  const MemoryBlock* find_containing(Address addr, std::uint64_t& steps) const noexcept;

  /// Block by logical id; nullptr if unknown.
  const MemoryBlock* find_id(BlockId id) const noexcept;

  /// Dense slot of a block id (base-address order). Returns size() if the
  /// id is unknown.
  std::uint32_t slot_of(BlockId id) const noexcept;

  const MemoryBlock* block_at(std::uint32_t slot) const noexcept {
    return entries_[slot].block;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  std::vector<Entry> entries_;  // sorted by base
  std::unordered_map<BlockId, std::uint32_t> slots_;
};

class AddressIndex {
 public:
  virtual ~AddressIndex() = default;

  /// Store a block; returns its stable home. Throws hpm::MsrError on a
  /// zero size or byte-range overlap with a live block (duplicate-id
  /// checks are the caller's business — Msrlt owns the id table).
  virtual MemoryBlock* insert(MemoryBlock block) = 0;

  /// Remove the block based exactly at `base`; throws hpm::MsrError if no
  /// live block starts there.
  virtual void erase(Address base) = 0;

  /// Block based exactly at `base`; nullptr if none. Not step-counted
  /// (it serves registration bookkeeping, not collection searches).
  virtual MemoryBlock* find_base(Address base) noexcept = 0;

  /// Containing-block search (base <= addr < base + size); adds the
  /// comparisons performed to `steps`. nullptr for untracked addresses.
  virtual const MemoryBlock* find_containing(Address addr,
                                             std::uint64_t& steps) const noexcept = 0;

  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// Visit every live block in ascending base order.
  virtual void for_each(const std::function<void(const MemoryBlock&)>& fn) const = 0;

  /// Compact into an immutable snapshot for concurrent readers.
  virtual FrozenIndex freeze() const = 0;
};

/// Factory for the strategy knob.
std::unique_ptr<AddressIndex> make_address_index(SearchStrategy strategy);

}  // namespace hpm::msr
