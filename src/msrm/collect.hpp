// Data collection: Save_variable / Save_pointer.
//
// A Collector owns one migration's depth-first traversal over the MSR
// graph of a MemorySpace. Visited blocks are marked in the MSRLT so each
// block is transferred exactly once (the paper's duplicate guard); the
// traversal uses an explicit work stack, so arbitrarily deep structures
// (long linked lists) cannot overflow the call stack even though the wire
// format is recursively nested.
#pragma once

#include <vector>

#include "msr/space.hpp"
#include "msrm/leaf_cache.hpp"
#include "msrm/stream.hpp"
#include "obs/metrics.hpp"
#include "xdr/wire.hpp"

namespace hpm::msrm {

class Collector {
 public:
  /// Starts a fresh traversal (bumps the MSRLT visit epoch).
  Collector(msr::MemorySpace& space, xdr::Encoder& enc);
  ~Collector() { flush_instruments(); }

  /// Collect a whole live variable: the tracked block based at
  /// `block_base` and everything reachable from it. (Paper:
  /// `Save_variable(&var)`.) Emits one PtrVal record.
  void save_variable(msr::Address block_base);

  /// Collect the pointer stored in the cell at `cell_addr` and everything
  /// reachable through it. (Paper: `Save_pointer(p)` where the cell holds
  /// p's value.) Emits one PtrVal record.
  void save_pointer(msr::Address cell_addr);

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
  /// exception left behind. The registry counters are shared atomics and
  /// the depth histogram takes a mutex, so the hot loop only bumps plain
  /// locals.
  void flush_instruments() noexcept;

  msr::MemorySpace& space_;
  msr::Msrlt& msrlt_;
  xdr::Encoder& enc_;
  LeafCache leaves_;
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

}  // namespace hpm::msrm
