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
// kInvalidBlock (0) marks an empty slot and is never stored: find(0)
// answers nullptr and insert(0, ...) is rejected.
#pragma once

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

 private:
  struct Slot {
    BlockId id = kInvalidBlock;
    T* value = nullptr;
  };

  /// Fibonacci hashing: ids are mostly sequential within a segment, and
  /// the multiply spreads consecutive ids across the whole table.
  std::size_t home(BlockId id) const noexcept {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    shift_ = 64;
    for (std::size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
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
  unsigned shift_ = 64;
};

}  // namespace hpm::msr
