// Address <-> (block id, leaf ordinal) translation.
//
// This is the machine-independent pointer format of the paper: the
// "pointer header" is the logical block id from the MSRLT and the offset
// is the ordering number of the data element the pointer refers to.
#pragma once

#include "common/error.hpp"
#include "msr/space.hpp"

namespace hpm::msr {

/// Machine-independent pointer value.
struct LogicalPointer {
  BlockId block = kInvalidBlock;  ///< pointer header
  std::uint64_t leaf = 0;         ///< element ordinal inside the block
};

/// A pointer resolved against the MSRLT: the block it points into (the
/// handle, so callers need no second lookup by id) and the leaf ordinal.
struct ResolvedPointer {
  const MemoryBlock* block = nullptr;
  std::uint64_t leaf = 0;
};

/// Leaf ordinal of `addr`, which must lie inside `block`.
inline std::uint64_t leaf_ordinal(const MemorySpace& space, const MemoryBlock& block,
                                  Address addr) {
  const std::uint64_t elem_size = space.layouts().of(block.type).size;
  const std::uint64_t byte_off = addr - block.base;
  const std::uint64_t elem_idx = byte_off / elem_size;
  const std::uint64_t per_elem = space.leaves().count(block.type);
  const std::uint64_t inner =
      ti::ordinal_of(space.leaves(), space.layouts(), block.type, byte_off - elem_idx * elem_size);
  return elem_idx * per_elem + inner;
}

/// Resolve `addr` given its containing block (nullptr = untracked, which
/// is a hard error: the MSR model has no meaning for such a pointer).
inline ResolvedPointer resolve_in(const MemorySpace& space, const MemoryBlock* block,
                                  Address addr) {
  if (block == nullptr) {
    throw MsrError("pointer " + std::to_string(addr) +
                   " does not refer to any tracked memory block");
  }
  return ResolvedPointer{block, leaf_ordinal(space, *block, addr)};
}

/// Translate a space address to its logical form. The address must fall
/// exactly on a data element of a tracked block; pointers into untracked
/// memory or into padding are hard errors (the MSR model has no meaning
/// for them).
inline LogicalPointer resolve_pointer(const MemorySpace& space, Address addr) {
  const ResolvedPointer r = resolve_in(space, space.msrlt().find_containing(addr), addr);
  return LogicalPointer{r.block->id, r.leaf};
}

/// Address of leaf `leaf` of `block` (restoration validates the ordinal
/// against the block's extent).
inline Address address_of(const MemorySpace& space, const MemoryBlock& block,
                          std::uint64_t leaf) {
  const std::uint64_t per_elem = space.leaves().count(block.type);
  const std::uint64_t elem_idx = leaf / per_elem;
  if (elem_idx >= block.count) {
    throw MsrError("logical pointer leaf ordinal beyond end of block '" +
                   std::string(space.msrlt().name_of(block)) + "'");
  }
  const ti::LeafRef ref = ti::leaf_at(space.leaves(), space.layouts(), block.type, leaf % per_elem);
  const std::uint64_t elem_size = space.layouts().of(block.type).size;
  return block.base + elem_idx * elem_size + ref.byte_offset;
}

/// Translate a logical pointer back to a space address.
inline Address address_of(const MemorySpace& space, const LogicalPointer& lp) {
  const MemoryBlock* block = space.msrlt().find_id(lp.block);
  if (block == nullptr) {
    throw MsrError("logical pointer refers to unknown block id " + std::to_string(lp.block));
  }
  return address_of(space, *block, lp.leaf);
}

}  // namespace hpm::msr
