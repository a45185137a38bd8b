#include "msr/address_index.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "common/error.hpp"

namespace hpm::msr {

namespace {

[[noreturn]] void throw_overlap(const MemoryBlock& incoming, const MemoryBlock& existing) {
  throw MsrError("block [" + std::to_string(incoming.base) + ", +" +
                 std::to_string(incoming.size) + ") overlaps existing block '" +
                 existing.name + "'");
}

void check_size(const MemoryBlock& block) {
  if (block.size == 0) throw MsrError("cannot register zero-sized block");
}

/// The seed's reference structure: a std::map keyed by base address.
/// Doubles as the LinearScan ablation (same storage, degraded search).
class MapIndex final : public AddressIndex {
 public:
  explicit MapIndex(bool linear_scan) : linear_scan_(linear_scan) {}

  MemoryBlock* insert(MemoryBlock block) override {
    check_size(block);
    auto next = by_addr_.lower_bound(block.base);
    if (next != by_addr_.end() && next->first < block.base + block.size) {
      throw_overlap(block, next->second);
    }
    if (next != by_addr_.begin()) {
      auto prev = std::prev(next);
      if (prev->second.base + prev->second.size > block.base) {
        throw_overlap(block, prev->second);
      }
    }
    const Address base = block.base;
    return &by_addr_.emplace_hint(next, base, std::move(block))->second;
  }

  void erase(Address base) override {
    auto it = by_addr_.find(base);
    if (it == by_addr_.end()) {
      throw MsrError("unregister: no block based at " + std::to_string(base));
    }
    by_addr_.erase(it);
  }

  MemoryBlock* find_base(Address base) noexcept override {
    auto it = by_addr_.find(base);
    return it == by_addr_.end() ? nullptr : &it->second;
  }

  const MemoryBlock* find_containing(Address addr, std::uint64_t& steps) const noexcept override {
    if (linear_scan_) {
      for (const auto& [base, block] : by_addr_) {
        ++steps;
        if (addr >= base && addr < base + block.size) return &block;
      }
      return nullptr;
    }
    // OrderedMap: the candidate is the last block whose base <= addr.
    auto it = by_addr_.upper_bound(addr);
    // ~log2(n) comparisons; recorded so benches can confirm the
    // O(n log n) aggregate search term without a profiler.
    std::uint64_t n = by_addr_.size();
    std::uint64_t s = 1;
    while (n > 1) {
      n >>= 1;
      ++s;
    }
    steps += s;
    if (it == by_addr_.begin()) return nullptr;
    --it;
    const MemoryBlock& block = it->second;
    if (addr >= block.base + block.size) return nullptr;
    return &block;
  }

  [[nodiscard]] std::size_t size() const noexcept override { return by_addr_.size(); }

  void for_each(const std::function<void(const MemoryBlock&)>& fn) const override {
    for (const auto& [base, block] : by_addr_) fn(block);
  }

  FrozenIndex freeze() const override {
    std::vector<FrozenIndex::Entry> entries;
    entries.reserve(by_addr_.size());
    for (const auto& [base, block] : by_addr_) {
      entries.push_back({base, block.size, &block});
    }
    return FrozenIndex(std::move(entries));
  }

 private:
  bool linear_scan_;
  std::map<Address, MemoryBlock> by_addr_;
};

/// Flat sorted interval array with a branchless binary search.
///
/// Mutation model: inserts append to a small unsorted `pending_` run;
/// erases of merged entries tombstone in place (entry.block = nullptr)
/// after deleting the block. Searches linear-scan the pending run (kept
/// small) and binary-search the merged array; `settle()` sorts and folds
/// the pending run in — and drops tombstones — whenever it outgrows an
/// adaptive threshold, so search phases (collect) see one contiguous
/// sorted array. Settles are amortized, but each insert's overlap check
/// scans the pending run (up to 64 + n/8 entries), so bulk registration
/// (restore) is O(n^2) overall — see address_index.hpp.
///
/// Tombstone correctness: entries of `main_` were all live simultaneously
/// at the last settle, hence pairwise disjoint. If the binary search's
/// candidate (last base <= addr) is a tombstone, every earlier entry ends
/// at or before the tombstone's base <= addr, so no earlier entry can
/// contain addr either — a dead candidate means "not in main_".
class FlatIndex final : public AddressIndex {
 public:
  FlatIndex() = default;

  ~FlatIndex() override {
    for (const Slot& s : main_) delete s.block;
    for (const Slot& s : pending_) delete s.block;
  }

  FlatIndex(const FlatIndex&) = delete;
  FlatIndex& operator=(const FlatIndex&) = delete;

  MemoryBlock* insert(MemoryBlock block) override {
    check_size(block);
    check_overlap(block);
    MemoryBlock* stored = new MemoryBlock(std::move(block));
    pending_.push_back({stored->base, stored->size, stored});
    ++live_;
    if (pending_.size() > pending_limit()) settle();
    return stored;
  }

  void erase(Address base) override {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].base == base && pending_[i].block != nullptr) {
        delete pending_[i].block;
        pending_[i] = pending_.back();
        pending_.pop_back();
        --live_;
        return;
      }
    }
    Slot* slot = lower_slot(base);
    if (slot != nullptr && slot->base == base && slot->block != nullptr) {
      delete slot->block;
      slot->block = nullptr;  // tombstone
      ++dead_;
      --live_;
      if (dead_ > 64 && dead_ * 4 > main_.size()) settle();
      return;
    }
    throw MsrError("unregister: no block based at " + std::to_string(base));
  }

  MemoryBlock* find_base(Address base) noexcept override {
    for (const Slot& s : pending_) {
      if (s.base == base) return s.block;
    }
    Slot* slot = lower_slot(base);
    if (slot != nullptr && slot->base == base) return slot->block;
    return nullptr;
  }

  const MemoryBlock* find_containing(Address addr, std::uint64_t& steps) const noexcept override {
    // A search-heavy phase should not keep paying the pending scan: fold
    // a grown run in first (collection never inserts, so this settles at
    // most once per registration burst).
    if (pending_.size() > 16) settle();
    for (const Slot& s : pending_) {
      ++steps;
      if (addr - s.base < s.size) return s.block;
    }
    const Slot* slot = lower_slot(addr, &steps);
    ++steps;  // the candidate's containment check
    if (slot == nullptr || slot->block == nullptr) return nullptr;
    return addr - slot->base < slot->size ? slot->block : nullptr;
  }

  [[nodiscard]] std::size_t size() const noexcept override { return live_; }

  void for_each(const std::function<void(const MemoryBlock&)>& fn) const override {
    settle();
    for (const Slot& s : main_) {
      if (s.block != nullptr) fn(*s.block);
    }
  }

  FrozenIndex freeze() const override {
    settle();
    std::vector<FrozenIndex::Entry> entries;
    entries.reserve(live_);
    for (const Slot& s : main_) {
      if (s.block != nullptr) entries.push_back({s.base, s.size, s.block});
    }
    return FrozenIndex(std::move(entries));
  }

 private:
  struct Slot {
    Address base = 0;
    std::uint64_t size = 0;
    MemoryBlock* block = nullptr;  // nullptr = tombstone (main_ only)
  };

  /// Pending run cap: constant for the interleaved case, proportional for
  /// bulk registration so settles stay geometric (O(log n) amortized per
  /// insert instead of O(n) per fixed-size batch).
  [[nodiscard]] std::size_t pending_limit() const noexcept {
    return 64 + main_.size() / 8;
  }

  /// Last main_ slot (live or dead) with slot.base <= key; nullptr if none.
  /// The loop body compiles to a conditional move — no branch mispredicts
  /// on random probe sequences.
  Slot* lower_slot(Address key, std::uint64_t* steps = nullptr) const noexcept {
    const std::size_t n = main_.size();
    if (n == 0) return nullptr;
    const Slot* lo = main_.data();
    std::size_t len = n;
    std::uint64_t s = 0;
    while (len > 1) {
      const std::size_t half = len >> 1;
      lo += (lo[half - 1].base <= key) ? half : 0;
      len -= half;
      ++s;
    }
    if (steps != nullptr) *steps += s;
    // `lo` converged on the first slot with base > key (or the last slot
    // when every base <= key); step back over the boundary.
    if (lo->base <= key) {
      // last slot — or the candidate itself.
    } else if (lo == main_.data()) {
      return nullptr;
    } else {
      --lo;
    }
    return const_cast<Slot*>(lo);
  }

  void check_overlap(const MemoryBlock& block) const {
    for (const Slot& s : pending_) {
      if (block.base < s.base + s.size && s.base < block.base + block.size) {
        throw_overlap(block, *s.block);
      }
    }
    if (main_.empty()) return;
    // Nearest live neighbours in the merged array (tombstones are
    // range-irrelevant: anything erased cannot overlap anything live).
    const Slot* cand = lower_slot(block.base);
    const Slot* begin = main_.data();
    const Slot* end = begin + main_.size();
    if (cand != nullptr) {
      for (const Slot* p = cand; p >= begin; --p) {
        if (p->block == nullptr) continue;
        if (p->base + p->size > block.base) throw_overlap(block, *p->block);
        break;
      }
    }
    for (const Slot* p = (cand == nullptr ? begin : cand + 1); p < end; ++p) {
      if (p->block == nullptr) continue;
      if (p->base < block.base + block.size) throw_overlap(block, *p->block);
      break;
    }
  }

  /// Fold the pending run into the sorted array and drop tombstones.
  void settle() const {
    if (pending_.empty() && dead_ == 0) return;
    std::sort(pending_.begin(), pending_.end(),
              [](const Slot& a, const Slot& b) { return a.base < b.base; });
    std::vector<Slot> merged;
    merged.reserve(live_);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < main_.size() || j < pending_.size()) {
      const bool take_main =
          j >= pending_.size() || (i < main_.size() && main_[i].base < pending_[j].base);
      const Slot& s = take_main ? main_[i++] : pending_[j++];
      if (s.block != nullptr) merged.push_back(s);
    }
    main_ = std::move(merged);
    pending_.clear();
    dead_ = 0;
  }

  // The settle is a representation change, not an observable mutation;
  // const searches and freezes trigger it, hence the mutable storage.
  mutable std::vector<Slot> main_;     // sorted by base; may hold tombstones
  mutable std::vector<Slot> pending_;  // unsorted recent inserts, all live
  mutable std::size_t dead_ = 0;       // tombstones in main_
  std::size_t live_ = 0;
};

}  // namespace

const char* search_strategy_name(SearchStrategy s) noexcept {
  switch (s) {
    case SearchStrategy::OrderedMap: return "ordered_map";
    case SearchStrategy::LinearScan: return "linear_scan";
    case SearchStrategy::FlatArray: return "flat_array";
  }
  return "?";
}

FrozenIndex::FrozenIndex(std::vector<Entry> entries) : entries_(std::move(entries)) {
  slots_.reserve(entries_.size());
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    slots_.emplace(entries_[i].block->id, i);
  }
}

const MemoryBlock* FrozenIndex::find_containing(Address addr, std::uint64_t& steps) const noexcept {
  const std::size_t n = entries_.size();
  if (n == 0) return nullptr;
  const Entry* lo = entries_.data();
  std::size_t len = n;
  std::uint64_t s = 1;
  while (len > 1) {
    const std::size_t half = len >> 1;
    lo += (lo[half - 1].base <= addr) ? half : 0;
    len -= half;
    ++s;
  }
  steps += s;
  if (lo->base > addr) {
    if (lo == entries_.data()) return nullptr;
    --lo;
  }
  return addr - lo->base < lo->size ? lo->block : nullptr;
}

const MemoryBlock* FrozenIndex::find_id(BlockId id) const noexcept {
  const auto it = slots_.find(id);
  return it == slots_.end() ? nullptr : entries_[it->second].block;
}

std::uint32_t FrozenIndex::slot_of(BlockId id) const noexcept {
  const auto it = slots_.find(id);
  return it == slots_.end() ? static_cast<std::uint32_t>(entries_.size()) : it->second;
}

std::unique_ptr<AddressIndex> make_address_index(SearchStrategy strategy) {
  switch (strategy) {
    case SearchStrategy::OrderedMap: return std::make_unique<MapIndex>(false);
    case SearchStrategy::LinearScan: return std::make_unique<MapIndex>(true);
    case SearchStrategy::FlatArray: return std::make_unique<FlatIndex>();
  }
  return std::make_unique<MapIndex>(false);
}

}  // namespace hpm::msr
