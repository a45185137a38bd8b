// FrozenIndex: an immutable snapshot of the MSRLT's address index.
//
// Msrlt::freeze() copies its ordered block set into one dense interval
// array sorted by base address. The snapshot is read-only, so any number
// of threads may search it at once (parallel collection), and every
// block gets a dense *slot* in [0, size()) in base-address order — the
// natural key for the visited/ownership tables of msrm/par_collect.cpp.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "msr/block.hpp"

namespace hpm::msr {

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

}  // namespace hpm::msr
