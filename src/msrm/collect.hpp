// Data collection: Save_variable / Save_pointer.
//
// A Collector owns one migration's depth-first traversal over the MSR
// graph of a MemorySpace. Visited blocks are marked in the MSRLT so each
// block is transferred exactly once (the paper's duplicate guard); the
// traversal uses an explicit work stack, so arbitrarily deep structures
// (long linked lists) cannot overflow the call stack even though the wire
// format is recursively nested.
//
// The traversal/encoding engine lives in CollectorBase with three policy
// hooks — visited marking, address resolution, and root lookup — so the
// serial Collector (live MSRLT) and the parallel per-root collectors
// (frozen index + ownership table, msrm/par_collect.hpp) emit
// bit-identical streams from one engine.
#pragma once

#include <vector>

#include "msr/resolve.hpp"
#include "msr/space.hpp"
#include "msrm/leaf_cache.hpp"
#include "msrm/stream.hpp"
#include "obs/metrics.hpp"
#include "xdr/wire.hpp"

namespace hpm::msrm {

class CollectorBase {
 public:
  virtual ~CollectorBase() { flush_instruments(); }

  /// Collect a whole live variable: the tracked block based at
  /// `block_base` and everything reachable from it. (Paper:
  /// `Save_variable(&var)`.) Emits one PtrVal record.
  void save_variable(msr::Address block_base);

  /// Collect the pointer stored in the cell at `cell_addr` and everything
  /// reachable through it. (Paper: `Save_pointer(p)` where the cell holds
  /// p's value.) Emits one PtrVal record.
  void save_pointer(msr::Address cell_addr);

 protected:
  /// `leaves` outlives the collector; sharing one prewarmed cache across
  /// parallel per-root collectors keeps the hot loop allocation-free.
  CollectorBase(msr::MemorySpace& space, xdr::Encoder& enc, LeafCache& leaves);

  /// --- policy hooks --------------------------------------------------------
  /// Address -> (block, leaf ordinal); throws MsrError off the data model.
  /// The block handle it returns is the one visit() then marks: each
  /// pointer is resolved once, never looked up again by id.
  virtual msr::ResolvedPointer resolve(msr::Address addr) const = 0;
  /// First visit of `block` in this traversal? (true exactly once per block.)
  virtual bool visit(const msr::MemoryBlock& block) = 0;
  /// Containing-block lookup for root validation.
  virtual const msr::MemoryBlock* containing(msr::Address addr) const = 0;

  msr::MemorySpace& space_;

 private:
  struct Pending {
    const msr::MemoryBlock* block;
    const std::vector<ti::LeafRef>* leaf_list;  // null for pointer-free blocks
    std::uint64_t elem_size;
    std::uint32_t elem_idx;
    std::uint64_t leaf_idx;
  };

  /// Emit a PtrVal for a target address; pushes a Pending when the target
  /// block is seen for the first time.
  void encode_ptr_value(msr::Address target);

  /// Encode a pointer-free block's FlatBody: BODY_RAW (one put_bytes of
  /// the source-layout image) when the space exposes raw storage, else
  /// BODY_CANON via per-element canonical conversion.
  void encode_flat(const msr::MemoryBlock& block);
  void encode_flat_type(msr::Address base, ti::TypeId type);

  /// Run the DFS until the work stack is empty.
  void drain();

  /// Push the local tallies into the process registry and zero them.
  /// Called at the end of each save_*; the destructor flushes whatever an
  /// exception left behind. Buffering matters for parallel collection:
  /// the registry counters are shared atomics (and the depth histogram a
  /// shared mutex) — per-event updates from four workers turn into
  /// cache-line ping-pong that erases the parallel speedup.
  void flush_instruments() noexcept;

  xdr::Encoder& enc_;
  LeafCache& leaves_;
  std::vector<Pending> stack_;

  // `msrm.collect.*` instruments (process-wide registry) and the
  // traversal-depth histogram, fed from the per-collector tallies below.
  obs::Counter& blocks_saved_;
  obs::Counter& refs_saved_;
  obs::Counter& nulls_saved_;
  obs::Counter& prim_leaves_;
  obs::Counter& ptr_leaves_;
  obs::Counter& bulk_bodies_;   ///< BODY_RAW bodies emitted
  obs::Counter& bulk_bytes_;    ///< raw bytes those bodies carried
  obs::Histogram& depth_hist_;  ///< `msrm.collect.depth`

  std::uint64_t tally_blocks_ = 0;
  std::uint64_t tally_refs_ = 0;
  std::uint64_t tally_nulls_ = 0;
  std::uint64_t tally_prim_ = 0;
  std::uint64_t tally_ptr_ = 0;
  std::uint64_t tally_bulk_bodies_ = 0;
  std::uint64_t tally_bulk_bytes_ = 0;
  std::vector<double> tally_depths_;
};

namespace detail {
/// Base-before-base holder so the serial Collector can own the LeafCache
/// it hands CollectorBase (members would be constructed too late).
struct OwnedLeafCache {
  explicit OwnedLeafCache(const msr::MemorySpace& space) : cache(space) {}
  LeafCache cache;
};
}  // namespace detail

/// The serial collector: duplicate guard and address resolution against
/// the live MSRLT, exactly the paper's single-threaded traversal.
class Collector final : private detail::OwnedLeafCache, public CollectorBase {
 public:
  /// Starts a fresh traversal (bumps the MSRLT visit epoch).
  Collector(msr::MemorySpace& space, xdr::Encoder& enc);

 protected:
  msr::ResolvedPointer resolve(msr::Address addr) const override {
    return msr::resolve_in(space_, space_.msrlt().find_containing(addr), addr);
  }
  bool visit(const msr::MemoryBlock& block) override { return space_.msrlt().try_mark(block); }
  const msr::MemoryBlock* containing(msr::Address addr) const override {
    return space_.msrlt().find_containing(addr);
  }
};

}  // namespace hpm::msrm
