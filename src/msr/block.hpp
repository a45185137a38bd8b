// Memory blocks — the vertices of the MSR graph.
//
// A memory block is one contiguous, typed region the process can point
// into: a global variable, a stack local, or one heap allocation. Each
// block carries a machine-independent identification (BlockId) so a
// pointer can be transferred as (block id, element ordinal) rather than a
// raw address.
#pragma once

#include <cstdint>

#include "ti/type.hpp"

namespace hpm::msr {

/// Where the block lives in the program memory space; part of the block's
/// logical identity and useful for diagnostics and graph rendering.
enum class Segment : std::uint8_t { Global = 0, Stack = 1, Heap = 2 };

inline const char* segment_name(Segment s) noexcept {
  switch (s) {
    case Segment::Global: return "global";
    case Segment::Stack: return "stack";
    case Segment::Heap: return "heap";
  }
  return "?";
}

/// Machine-independent block identification: segment tag in the top byte,
/// a per-space sequence number below. Sequence numbers are never reused,
/// so a stale id can be detected instead of silently re-resolving.
using BlockId = std::uint64_t;
inline constexpr BlockId kInvalidBlock = 0;

constexpr BlockId make_block_id(Segment seg, std::uint64_t seq) noexcept {
  return (static_cast<std::uint64_t>(seg) << 56) | (seq & 0x00FFFFFFFFFFFFFFull);
}
constexpr Segment block_segment(BlockId id) noexcept {
  return static_cast<Segment>((id >> 56) & 0xFFu);
}
constexpr std::uint64_t block_seq(BlockId id) noexcept {
  return id & 0x00FFFFFFFFFFFFFFull;
}

/// Address within a memory space: a real host address (HostSpace) or an
/// arena offset (memimg::ImageSpace). 0 is the null pointer in any space.
using Address = std::uint64_t;

/// One tracked memory block. Kept to 48 bytes: a restore registers one
/// per migrated block, so the entry size is paid once per block.
struct MemoryBlock {
  BlockId id = kInvalidBlock;
  Segment segment = Segment::Heap;
  /// The storage came from the tracking space's allocate() and is the
  /// space's to release (MemorySpace::new_block): freed by deallocate()
  /// when the block is dropped, or when the space is destroyed.
  bool owned = false;
  /// Associated variable name (diagnostics only), as an index into the
  /// tracking Msrlt's name table: read it with Msrlt::name_of. 0 = unnamed.
  std::uint32_t name_id = 0;
  Address base = 0;          ///< first byte, in the owning space's addressing
  std::uint64_t size = 0;    ///< total bytes under the owning space's layout
  ti::TypeId type = ti::kInvalidType;  ///< element type
  std::uint32_t count = 1;   ///< number of elements ("array-of-type" block)
  std::uint64_t visit_epoch = 0;  ///< DFS mark (see Msrlt::begin_traversal)
};
static_assert(sizeof(MemoryBlock) <= 48, "MemoryBlock is paid once per restored block");

}  // namespace hpm::msr
