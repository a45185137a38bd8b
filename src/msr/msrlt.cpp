#include "msr/msrlt.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace hpm::msr {

namespace {

[[noreturn]] void throw_overlap(const MemoryBlock& incoming, const MemoryBlock& existing) {
  throw MsrError("block [" + std::to_string(incoming.base) + ", +" +
                 std::to_string(incoming.size) + ") overlaps existing block '" +
                 existing.name + "'");
}

}  // namespace

Msrlt::Msrlt()
    : registrations_(obs::Registry::process().counter("msr.msrlt.registrations")),
      removals_(obs::Registry::process().counter("msr.msrlt.removals")),
      searches_(obs::Registry::process().counter("msr.msrlt.searches")),
      search_steps_(obs::Registry::process().counter("msr.msrlt.search_steps")),
      cache_hits_(obs::Registry::process().counter("msr.msrlt.cache_hits")),
      id_lookups_(obs::Registry::process().counter("msr.msrlt.id_lookups")),
      marks_(obs::Registry::process().counter("msr.msrlt.marks")),
      blocks_gauge_(obs::Registry::process().gauge("msr.msrlt.blocks")) {}

MemoryBlock* Msrlt::insert_checked(MemoryBlock block) {
  if (static_cast<int>(block.segment) > 2) throw MsrError("register: bad segment tag");
  if (by_id_.find(block.id) != nullptr) {
    throw MsrError("duplicate block id " + std::to_string(block.id));
  }
  if (block.size == 0) throw MsrError("cannot register zero-sized block");
  if (block.size > ~block.base) {
    throw MsrError("block [" + std::to_string(block.base) + ", +" +
                   std::to_string(block.size) + ") wraps past the end of the address space");
  }
  // Neither neighbour may reach into [base, base + size): the first block
  // at or after base must start at or past its end, and the last block
  // before base must end at or before it. No stored range wraps, so the
  // sums cannot overflow.
  const auto next = by_addr_.lower_bound(block.base);
  if (next != by_addr_.end() && next->first < block.base + block.size) {
    throw_overlap(block, next->second);
  }
  if (next != by_addr_.begin()) {
    const MemoryBlock& prev = std::prev(next)->second;
    if (prev.base + prev.size > block.base) throw_overlap(block, prev);
  }
  const auto it = by_addr_.emplace_hint(next, block.base, std::move(block));
  MemoryBlock* stored = &it->second;
  try {
    by_id_.insert(stored->id, stored);
  } catch (...) {
    by_addr_.erase(it);
    throw;
  }
  tracked_bytes_ += stored->size;
  ++segment_blocks_[static_cast<int>(stored->segment)];
  registrations_.add(1);
  blocks_gauge_.add(1);
  return stored;
}

const MemoryBlock& Msrlt::add(Segment seg, Address base, std::uint64_t size, ti::TypeId type,
                              std::uint32_t count, std::string name, bool owned) {
  if (static_cast<int>(seg) > 2) throw MsrError("register: bad segment tag");
  MemoryBlock block;
  block.id = make_block_id(seg, next_seq_[static_cast<int>(seg)]++);
  block.segment = seg;
  block.owned = owned;
  block.base = base;
  block.size = size;
  block.type = type;
  block.count = count;
  block.name = std::move(name);
  return *insert_checked(std::move(block));
}

void Msrlt::register_with_id(BlockId id, Segment seg, Address base, std::uint64_t size,
                             ti::TypeId type, std::uint32_t count, std::string name) {
  if (id == kInvalidBlock) throw MsrError("register_with_id: invalid id");
  MemoryBlock block;
  block.id = id;
  block.segment = seg;
  block.base = base;
  block.size = size;
  block.type = type;
  block.count = count;
  block.name = std::move(name);
  insert_checked(std::move(block));
  // Keep locally assigned ids ahead of any adopted id so the two streams
  // of ids can never collide.
  const auto seg_idx = static_cast<int>(block_segment(id));
  if (seg_idx >= 0 && seg_idx < 3 && block_seq(id) >= next_seq_[seg_idx]) {
    next_seq_[seg_idx] = block_seq(id) + 1;
  }
}

void Msrlt::unregister(Address base) {
  const auto it = by_addr_.find(base);
  if (it == by_addr_.end()) {
    throw MsrError("unregister: no block based at " + std::to_string(base));
  }
  const MemoryBlock& block = it->second;
  by_id_.erase(block.id);
  tracked_bytes_ -= block.size;
  --segment_blocks_[static_cast<int>(block.segment)];
  ++cache_epoch_;  // some cached entry may point at the erased block
  by_addr_.erase(it);
  removals_.add(1);
  blocks_gauge_.sub(1);
}

const MemoryBlock* Msrlt::find_containing(Address addr) const {
  searches_.add(1);
  // Set-associative cache: consecutive pointer leaves usually land in a
  // recently found block, so most searches answer in a few comparisons
  // against one cache set.
  CacheEntry* set = cache_.data() + cache_set(addr) * kCacheWays;
  for (std::size_t way = 0; way < kCacheWays; ++way) {
    const CacheEntry& e = set[way];
    if (e.epoch == cache_epoch_ && addr - e.block->base < e.block->size) {
      cache_hits_.add(1);
      search_steps_.add(1);
      return e.block;
    }
  }
  // The candidate is the last block whose base <= addr. A map search
  // makes ~log2(n) comparisons; the count is recorded so benches can
  // confirm the O(n log n) aggregate search term without a profiler.
  search_steps_.add(std::max<std::uint64_t>(1, std::bit_width(by_addr_.size())));
  auto it = by_addr_.upper_bound(addr);
  const MemoryBlock* block = nullptr;
  if (it != by_addr_.begin()) {
    const MemoryBlock& candidate = (--it)->second;
    if (addr - candidate.base < candidate.size) block = &candidate;
  }
  if (block != nullptr) {
    std::uint8_t& cursor = cache_cursor_[static_cast<std::size_t>(set - cache_.data()) / kCacheWays];
    set[cursor] = CacheEntry{cache_epoch_, block};
    cursor = static_cast<std::uint8_t>((cursor + 1) % kCacheWays);
  }
  return block;
}

const MemoryBlock* Msrlt::find_id(BlockId id) const {
  id_lookups_.add(1);
  return by_id_.find(id);
}

bool Msrlt::try_mark(BlockId id) {
  MemoryBlock* block = by_id_.find(id);
  if (block == nullptr) throw MsrError("try_mark: unknown block id");
  return try_mark(*block);
}

bool Msrlt::try_mark(const MemoryBlock& block) noexcept {
  marks_.add(1);
  // Every block this MSRLT tracks lives in its map as a non-const
  // object; callers only ever see it through const handles.
  MemoryBlock& b = const_cast<MemoryBlock&>(block);
  if (b.visit_epoch == epoch_) return false;
  b.visit_epoch = epoch_;
  return true;
}

}  // namespace hpm::msr
