// IdTable: a flat open-addressing BlockId -> T* table.
//
// The MSRLT's id index and the Restorer's source-id binding both map
// block ids to block handles once per migrated block. A node-based hash
// map pays one heap allocation per entry plus rehash churn; this table
// keeps (id, pointer) pairs in one power-of-two array with linear probing
// and backward-shift deletion (no tombstones), so an insert is a store
// into memory the table already owns and a lookup touches one or two
// adjacent cache lines. Capacity tracks the live entry count (load factor
// at most 1/2), never the id values, so an id read off a hostile stream
// costs one probe sequence and nothing else.
//
// Placement keeps sequential ids together. A restore allocates ids in
// sequence and binds source ids in collection order, so scattering them
// (as a multiplicative hash does) would turn every insert into a cache
// miss on a table of megabytes. Instead the home slot of an id is the xor
// of the w-bit chunks of its sequence number (w = log2 capacity):
// consecutive ids take adjacent slots, and the ids of a power-of-two
// stride 2^k, whose varying bits sit at k..k+m, fold onto the distinct
// positions (k..k+m) mod w, so no stride piles them onto one slot while
// they fit the table. The segment tag then xors in an alternating-bit
// pattern (01.., 10.., or their xor 11..) with a set bit in every run of
// three index bits: while each segment's ids leave three bits free, equal
// sequence numbers of different segments land in disjoint slot sets
// instead of piling up.
//
// kInvalidBlock (0) marks an empty slot and is never stored: find(0)
// answers nullptr and insert(0, ...) is rejected.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "msr/block.hpp"

namespace hpm::msr {

template <typename T>
class IdTable {
 public:
  /// Handle stored under `id`; nullptr if none.
  T* find(BlockId id) const noexcept {
    if (id == kInvalidBlock || size_ == 0) return nullptr;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == id) return s.value;
      if (s.id == kInvalidBlock) return nullptr;
    }
  }

  /// Store `value` under `id`. False (and no change) if `id` is already
  /// present or is kInvalidBlock.
  bool insert(BlockId id, T* value) {
    if (id == kInvalidBlock) return false;
    if ((size_ + 1) * 2 > slots_.size()) grow();
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.id == id) return false;
      if (s.id == kInvalidBlock) {
        s = Slot{id, value};
        ++size_;
        return true;
      }
    }
  }

  /// Remove `id`; false if absent. Later members of the probe run shift
  /// back into the hole, so lookups never need tombstones.
  bool erase(BlockId id) noexcept {
    if (id == kInvalidBlock || size_ == 0) return false;
    std::size_t hole = home(id);
    while (slots_[hole].id != id) {
      if (slots_[hole].id == kInvalidBlock) return false;
      hole = (hole + 1) & mask_;
    }
    for (std::size_t i = (hole + 1) & mask_; slots_[i].id != kInvalidBlock;
         i = (i + 1) & mask_) {
      // Move slot i into the hole unless its home lies cyclically in
      // (hole, i] — then it must stay at or after its home.
      const std::size_t h = home(slots_[i].id);
      const bool stays = hole <= i ? (hole < h && h <= i) : (hole < h || h <= i);
      if (!stays) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Longest probe sequence a stored id needs (1 = found in its home
  /// slot). Walks the whole table: for tests of the placement.
  [[nodiscard]] std::size_t max_probe() const noexcept {
    std::size_t longest = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].id == kInvalidBlock) continue;
      longest = std::max(longest, ((i - home(slots_[i].id)) & mask_) + 1);
    }
    return longest;
  }

 private:
  struct Slot {
    BlockId id = kInvalidBlock;
    T* value = nullptr;
  };

  /// Xor of the w-bit chunks of the sequence number (eight chunks cover
  /// its 56 bits once w >= 7), plus the segment's alternating pattern.
  std::size_t home(BlockId id) const noexcept {
    std::uint64_t x = block_seq(id);
    x ^= x >> fold_[0];
    x ^= x >> fold_[1];
    x ^= x >> fold_[2];
    x ^= (id >> 56) * 0x5555555555555555ull;
    return static_cast<std::size_t>(x) & mask_;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    unsigned width = 0;
    for (std::size_t n = slots_.size(); n > 1; n >>= 1) ++width;
    // A sequence number is below 2^56, so a shift of 63 folds in nothing.
    for (unsigned i = 0; i < 3; ++i) fold_[i] = std::min(width << i, 63u);
    for (const Slot& s : old) {
      if (s.id == kInvalidBlock) continue;
      std::size_t i = home(s.id);
      while (slots_[i].id != kInvalidBlock) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned fold_[3] = {63, 63, 63};  ///< w, 2w, 4w (capped): see home()
};

}  // namespace hpm::msr
