#include "msr/frozen_index.hpp"

namespace hpm::msr {

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

}  // namespace hpm::msr
