// Data restoration: Restore_variable / Restore_pointer.
//
// A Restorer rebuilds memory blocks in a destination MemorySpace from the
// PtrVal grammar. Because every migrated block carries its logical id,
// restoration never searches the MSRLT by address to place a block: a
// PNEW binds the source id to the destination block handle in a flat id
// table (msr/id_table.hpp, one O(1) expected probe, no allocation), and
// a PREF resolves through the same table straight to the block. The only
// address searches are one root check per variable record. Each block
// the stream creates is registered, unnamed, in the destination MSRLT:
// a fresh sequential id stored in its id table and an O(log n) insert
// into its ordered address map. Destination ids are sequential, and
// source ids arrive in collection order, which follows the source's
// allocation order wherever the program allocated depth-first; both
// id-table stores then land next to the previous block's (see
// IdTable's placement). The per-block cost is two table stores
// plus one map insert, not the collection side's O(log n) search per
// pointer (paper §4.2's O(n) update term against the O(n log n) search
// term).
//
// Binding rules:
//  * Stack and Global blocks exist on the destination a priori (the
//    re-executed program prologues and startup registration create them);
//    they must be bound with bind() before their contents arrive, unless
//    auto-bind mode is enabled (used by tests and image round trips).
//  * Heap blocks are created on demand when their PNEW header is read —
//    before the body is decoded, so back/cross references always resolve.
//    The destination space owns their storage (MemorySpace::new_block),
//    so a restore that fails midway leaks nothing.
//  * A PNEW whose block could never be filled — its leaves cannot fit in
//    the rest of a whole-buffer stream, its size overflows, or the space
//    cannot allocate it — is rejected with hpm::WireError before (or
//    instead of) allocating.
#pragma once

#include <array>
#include <unordered_map>
#include <vector>

#include "msr/id_table.hpp"
#include "msr/resolve.hpp"
#include "msr/space.hpp"
#include "msrm/leaf_cache.hpp"
#include "msrm/stream.hpp"
#include "obs/metrics.hpp"
#include "xdr/wire.hpp"

namespace hpm::msrm {

class Restorer {
 public:
  /// Restore a stream whose source shares this space's architecture.
  Restorer(msr::MemorySpace& space, xdr::Decoder& dec);

  /// Restore a stream collected under `source_arch` (the stream header
  /// names it). Raw (BODY_RAW) bodies are memcpy'd when the source's
  /// data model matches this space's, and converted leaf-by-leaf under
  /// the source-arch layout otherwise — so heterogeneous callers MUST
  /// pass the real source architecture.
  Restorer(msr::MemorySpace& space, xdr::Decoder& dec,
           const xdr::ArchDescriptor& source_arch);

  ~Restorer() { flush_instruments(); }

  Restorer(const Restorer&) = delete;
  Restorer& operator=(const Restorer&) = delete;

  /// Pre-bind a source block id to existing destination storage (a
  /// re-registered stack local or global). Validates element type and
  /// count against the destination block.
  void bind(msr::BlockId source_id, msr::BlockId dest_id, ti::TypeId type,
            std::uint32_t count);

  /// Auto-bind mode: PNEW for an unbound Stack/Global block allocates
  /// fresh storage (registered under the original segment) instead of
  /// failing. Default off.
  void set_auto_bind(bool enabled) noexcept { auto_bind_ = enabled; }

  /// Decode one variable record (must be PNEW or PREF of the variable's
  /// own block, at leaf 0). Returns the destination block id. (Paper:
  /// `Restore_variable(&var)`.)
  msr::BlockId restore_variable();

  /// Decode one PtrVal and return the destination address it denotes
  /// (0 for null). (Paper: `p = Restore_pointer()`.)
  msr::Address restore_pointer();

 private:
  struct Pending {
    const msr::MemoryBlock* block;  // destination block
    const std::vector<ti::LeafRef>* leaf_list;
    std::uint64_t elem_size;
    std::uint32_t elem_idx;
    std::uint64_t leaf_idx;
  };

  /// Decode a PtrVal; may push a Pending; returns the destination address.
  msr::Address decode_ptr_value();

  /// `leaves_per_elem` and `elem_size` describe block.type.
  void decode_flat(const msr::MemoryBlock& block, std::uint64_t leaves_per_elem,
                   std::uint64_t elem_size);
  void decode_flat_type(msr::Address base, ti::TypeId type);
  void drain();

  /// Flat leaf list of `type` under the *source* architecture's layout.
  const std::vector<ti::LeafRef>& src_leaves_of(ti::TypeId type);

  /// One step of the staged heterogeneous conversion. count > 0 is a
  /// *run*: `count` leaves contiguous in both layouts, executed as one
  /// memcpy (swap == false, `bytes` long, widths may mix) or one
  /// fixed-`width` byteswap sweep. count == 0 falls back to the scalar
  /// read_raw/write_prim round trip for leaf `first` (width-changing
  /// leaves, Bool normalization, overflow detection).
  struct StagedOp {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::uint8_t width = 0;
    bool swap = false;
    std::uint64_t src_off = 0;
    std::uint64_t dst_off = 0;
    std::uint64_t bytes = 0;
  };
  /// Per-element conversion recipe for one TypeId (both layouts fixed for
  /// the stream's lifetime, so built once and replayed per element).
  struct StagedPlan {
    std::vector<StagedOp> ops;
    std::uint64_t run_bytes = 0;     ///< bytes moved by runs, per element
    std::uint32_t run_ops = 0;       ///< run ops per element
    std::uint32_t scalar_ops = 0;    ///< scalar ops per element
  };
  const StagedPlan& staged_plan_of(ti::TypeId type);

  /// `per_elem` and `elem_size` are the leaf count and byte size of `type`.
  const msr::MemoryBlock& materialize_pnew(msr::BlockId src_id, std::uint8_t segment,
                                           ti::TypeId type, std::uint32_t count,
                                           std::uint64_t per_elem, std::uint64_t elem_size);

  /// Push the local tallies into the process registry and zero them.
  /// Called at the end of each restore_pointer (so once per variable
  /// record); the destructor flushes whatever an exception left behind.
  void flush_instruments() noexcept;

  msr::MemorySpace& space_;
  xdr::Decoder& dec_;
  LeafCache leaves_;
  /// Source block id -> destination block. Handles stay valid for the
  /// restore: nothing is unregistered while a stream is being decoded.
  msr::IdTable<const msr::MemoryBlock> binding_;
  std::vector<Pending> stack_;
  bool auto_bind_ = false;

  // Source architecture (for BODY_RAW bodies): layouts under the source
  // arch, a flat-leaf cache per type, and a staging buffer for the
  // heterogeneous conversion path.
  const xdr::ArchDescriptor* src_arch_;
  ti::LayoutMap src_layouts_;
  bool same_model_;
  std::unordered_map<ti::TypeId, std::vector<ti::LeafRef>> src_leaf_cache_;
  std::unordered_map<ti::TypeId, StagedPlan> staged_plans_;
  std::vector<std::uint8_t> raw_buf_;

  // `msrm.restore.*` instruments (process-wide registry) and the
  // traversal-depth histogram, fed from the local tallies below: a
  // registry counter is a shared atomic and the histogram takes a mutex,
  // too dear to pay per block.
  enum Tally : std::size_t {
    kBlocksCreated,
    kBlocksBound,
    kRefsResolved,
    kNullsRestored,
    kPrimLeaves,
    kPtrLeaves,
    kBulkBodies,      ///< BODY_RAW bodies memcpy'd
    kBulkBytes,       ///< bytes those bodies carried
    kStagedRuns,      ///< batched run ops executed
    kStagedRunBytes,  ///< bytes those runs converted
    kStagedScalar,    ///< leaves that stayed scalar
    kTallyCount
  };
  std::array<obs::Counter*, kTallyCount> counters_;
  std::array<std::uint64_t, kTallyCount> tally_{};
  obs::Histogram& depth_hist_;  ///< `msrm.restore.depth`
  std::vector<double> tally_depths_;
};

}  // namespace hpm::msrm
