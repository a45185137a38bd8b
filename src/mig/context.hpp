// MigContext: the per-process migration runtime.
//
// A migratable program is written against this context using the macros
// in annotate.hpp (the artifacts the paper's pre-compiler would insert):
// every migratable function opens a frame, registers its live locals,
// wraps its body in a resume switch, and polls at chosen points. At a
// poll-point where a migration request is pending the context collects
// the execution state and all live data (innermost frame first, exactly
// the paper's order), seals the stream, and unwinds the program with
// MigrationExit. On the destination, begin_restore() parses the stream,
// the same program re-executes its prologues as a skeleton down to the
// migration point, and finish-restoration decodes every block in place
// before normal execution resumes.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "mig/frame.hpp"
#include "msr/host_space.hpp"
#include "msrm/collect.hpp"
#include "msrm/restore.hpp"
#include "msrm/stream.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "ti/describe.hpp"

namespace hpm::mig {

class ChunkAssembler;

/// Thrown by a poll-point after collection succeeds; unwinds the source
/// program so the process can "terminate" (paper §2). Deliberately not
/// derived from hpm::Error: it is control flow, not a failure.
struct MigrationExit {
  std::uint32_t migration_point = 0;
};

enum class Mode : std::uint8_t { Normal, Restoring };

/// Timing and volume measurements of one migration (Table 1 columns).
/// The two phase timings are span-derived: collect_seconds is the
/// `mig.collect` span, restore_seconds the `mig.restore` span
/// (begin_restore through the migration poll-point).
struct MigrationMetrics {
  double collect_seconds = 0;
  double restore_seconds = 0;
  std::uint64_t stream_bytes = 0;
  /// Tracked blocks at the migration point; blocks NOT reachable from any
  /// live variable (tracked_blocks - blocks saved) stay behind — the
  /// pre-compiler's live-variable analysis made manifest.
  std::uint64_t tracked_blocks = 0;
  /// Registry deltas across the two phases, so every `msrm.collect.*` /
  /// `msrm.restore.*` instrument of this migration is one lookup away
  /// (e.g. collect.counter("msrm.collect.blocks_saved")). Instruments are
  /// process-wide: a phase overlapping other registry activity (the
  /// pipelined transfer) sees that activity under its other names too.
  obs::MetricsSnapshot collect;
  obs::MetricsSnapshot restore;

  [[nodiscard]] std::uint64_t dead_blocks() const {
    return tracked_blocks - collect.counter("msrm.collect.blocks_saved");
  }
};

class MigContext {
 public:
  explicit MigContext(ti::TypeTable& types) : types_(&types), space_(types) {}

  MigContext(const MigContext&) = delete;
  MigContext& operator=(const MigContext&) = delete;

  /// --- program-construction API -----------------------------------------

  /// Per-context "global variable" storage (zero-initialized), registered
  /// in the Global segment. Must be created before the first frame is
  /// entered, in the same order on source and destination.
  template <typename T>
  T& global(const char* name) {
    return *static_cast<T*>(make_global(name, ti::native_type_id<T>(*types_), 1));
  }
  template <typename T>
  T* global_array(const char* name, std::uint32_t count) {
    return static_cast<T*>(make_global(name, ti::native_type_id<T>(*types_), count));
  }

  /// Migratable heap (the paper's instrumented malloc): allocates zeroed
  /// storage, registers the block. Every allocation is one MSR heap node.
  template <typename T>
  T* heap_alloc(std::uint32_t count = 1, const char* name = "") {
    return static_cast<T*>(heap_alloc_raw(ti::native_type_id<T>(*types_), count, name));
  }

  /// Free a heap_alloc'd (or restored) block: unregisters and releases.
  /// Throws MigrationError for anything else — a stack or global address,
  /// an interior pointer, an already freed block.
  void heap_free(void* p);

  /// --- annotation hooks (called via the HPM_* macros) --------------------
  void enter_frame(Frame& frame);
  void leave_frame(Frame& frame);

  template <typename T>
  void local(Frame& frame, const char* name, T& var) {
    add_local(frame, name, &var, ti::native_type_id<T>(*types_), 1);
  }
  template <typename T>
  void local_array(Frame& frame, const char* name, T* base, std::uint32_t count) {
    add_local(frame, name, base, ti::native_type_id<T>(*types_), count);
  }

  /// Resume label for a frame: 0 in normal execution (enter at the top),
  /// the saved label while restoring.
  std::uint32_t resume_point(const Frame& frame) const noexcept {
    return frame.restore_from != nullptr ? frame.restore_from->resume_point : 0;
  }

  /// Record passing a call-site label (so the frame resumes there if a
  /// migration happens deeper in the call).
  void at_callsite(Frame& frame, std::uint32_t label) noexcept {
    frame.current_point = label;
  }

  /// Poll-point: the paper's inserted macro. In normal mode, checks for a
  /// pending migration request and, if one is due, collects and throws
  /// MigrationExit. In restore mode, this must be the migration point:
  /// completes data restoration and switches to normal mode.
  void poll(Frame& frame, std::uint32_t label);

  /// --- migration control --------------------------------------------------
  /// Asynchronous request (what the paper's scheduler sends).
  void request_migration() noexcept { requested_.store(true, std::memory_order_relaxed); }

  /// Deterministic trigger: migrate at the Nth executed poll (1-based).
  void set_migrate_at_poll(std::uint64_t n) noexcept { migrate_at_poll_ = n; }

  /// Benchmark hook: unwind with MigrationExit as soon as restoration
  /// completes (metrics are already recorded), instead of running the
  /// program tail. Lets a harness time Restore without paying for the
  /// remaining computation.
  void set_stop_after_restore(bool stop) noexcept { stop_after_restore_ = stop; }

  /// Observer invoked at every poll-point (normal mode, before the
  /// migration-request check). Used by periodic checkpointers; the
  /// observer may inspect the context but must not migrate or unwind.
  void set_poll_observer(std::function<void(MigContext&)> observer) {
    poll_observer_ = std::move(observer);
  }

  /// Snapshot of the current execution state (frames outermost-first,
  /// then globals) — exactly what a migration stream would carry.
  [[nodiscard]] ExecutionState snapshot_execution_state() const;

  [[nodiscard]] std::uint64_t poll_count() const noexcept { return poll_count_; }

  /// Stream produced by the last collection (valid after MigrationExit).
  [[nodiscard]] const Bytes& stream() const noexcept { return stream_; }
  /// Move the collected stream out, leaving stream() empty, so a source
  /// that discards the context after collecting keeps the stream without
  /// a second full-size copy.
  [[nodiscard]] Bytes take_stream() noexcept { return std::move(stream_); }

  /// End-to-end digest of the last collected stream: the root of its leaf
  /// digests (msrm::leaf_root), built from the collect tap's chunk digests
  /// plus the tail leaf, and the value its trailer seals. Carried in
  /// StateEnd and re-derived on the destination before it may vote in the
  /// commit phase.
  [[nodiscard]] std::uint64_t stream_digest() const noexcept { return collect_digest_; }

  /// StreamDigest of each `leaf_bytes` slice of the last collected stream,
  /// in order (slice i = stream()[i*leaf, (i+1)*leaf), the last one short
  /// and holding the trailer): taken once, as collection produced each
  /// slice, to seal its StateChunk and name it in a dedup manifest.
  [[nodiscard]] const std::vector<std::uint64_t>& chunk_digests() const noexcept {
    return chunk_digests_;
  }
  [[nodiscard]] std::vector<std::uint64_t> take_chunk_digests() noexcept {
    return std::move(chunk_digests_);
  }

  /// Leaf size (stream grammar v4) of every later collection, with a sink
  /// or without: the chunk size the stream will travel in.
  /// msrm::kDefaultLeafBytes until set.
  void set_leaf_bytes(std::uint32_t leaf_bytes) noexcept { leaf_bytes_ = leaf_bytes; }

  /// One collected chunk and the StreamDigest the collect tap took of it.
  using ChunkSink =
      std::function<void(std::span<const std::uint8_t> chunk, std::uint64_t digest)>;

  /// Pipelined collection: stream the encoded state through `sink` in
  /// leaf-sized slices while the collection DFS is still walking the
  /// graph. Install before the program starts. The full stream is still
  /// retained (stream()) so a failed transfer can be resumed or replayed.
  void set_collect_sink(ChunkSink sink) { collect_sink_ = std::move(sink); }

  /// --- restoration --------------------------------------------------------
  /// Parse and validate a migration stream; the caller then re-runs the
  /// program entry, which restores and continues to completion.
  void begin_restore(Bytes stream);

  /// Streaming variant: decode the stream incrementally as chunks land in
  /// `assembler` (which must outlive restoration). Blocks whenever the
  /// decoder outruns the network. The header's leaf size must equal the
  /// assembler's announced chunk size (hpm::WireError otherwise).
  /// End-to-end checks (the leaf root from the assembler's chunk digests
  /// against StateEnd's digest, the trailer seal, byte totals) run once the
  /// stream completes, at the migration poll-point.
  void begin_restore_streaming(ChunkAssembler& assembler);

  /// Transactional handoff hook, streaming restores only: invoked at the
  /// migration poll-point AFTER every restoration check (including the
  /// end-to-end digest comparison) passed, with the digest this side
  /// computed. The coordinator's gate runs the Prepare/Commit exchange
  /// there; a throw unwinds the program before the restored process ever
  /// executes its tail — the destination must not run what it does not
  /// yet own.
  void set_commit_gate(std::function<void(std::uint64_t digest)> gate) {
    commit_gate_ = std::move(gate);
  }

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] bool restoring() const noexcept { return mode_ == Mode::Restoring; }

  /// --- introspection -------------------------------------------------------
  msr::HostSpace& space() noexcept { return space_; }
  ti::TypeTable& types() noexcept { return *types_; }
  [[nodiscard]] const MigrationMetrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] std::size_t frame_depth() const noexcept { return frames_.size(); }
  /// Migratable heap blocks alive in this context (heap_alloc'd or
  /// restored, not yet freed): the MSRLT's Heap-segment count.
  [[nodiscard]] std::size_t live_heap_blocks() const noexcept {
    return space_.msrlt().block_count(msr::Segment::Heap);
  }

 private:
  void* make_global(const char* name, ti::TypeId type, std::uint32_t count);
  void* heap_alloc_raw(ti::TypeId type, std::uint32_t count, const char* name);
  void add_local(Frame& frame, const char* name, void* addr, ti::TypeId type,
                 std::uint32_t count);
  void do_migration(std::uint32_t label);
  void restore_from_decoder();
  /// Leaf root of the chunked stream now in restore_stream_: the
  /// assembler's chunk digests for every chunk that is a whole leaf, the
  /// rest (the tail leaf) hashed here.
  std::uint64_t restored_root() const;
  void finish_restore(Frame& frame, std::uint32_t label);
  void bind_saved(const SavedVar& saved, const LocalVar& dest);

  ti::TypeTable* types_;
  msr::HostSpace space_;

  std::vector<Frame*> frames_;
  std::vector<LocalVar> globals_;

  std::atomic<bool> requested_{false};
  std::uint64_t migrate_at_poll_ = 0;
  bool stop_after_restore_ = false;
  std::function<void(MigContext&)> poll_observer_;
  std::uint64_t poll_count_ = 0;

  Mode mode_ = Mode::Normal;
  Bytes stream_;
  std::uint32_t leaf_bytes_ = msrm::kDefaultLeafBytes;
  ChunkSink collect_sink_;
  std::vector<std::uint64_t> chunk_digests_;
  std::uint64_t collect_digest_ = 0;
  std::function<void(std::uint64_t)> commit_gate_;

  // Restore-side state.
  ChunkAssembler* assembler_ = nullptr;  ///< non-null while restoring a chunked stream
  obs::MetricsSnapshot restore_before_;
  Bytes restore_stream_;
  std::uint32_t restore_leaf_bytes_ = 0;  ///< the restored stream's header leaf size
  std::optional<xdr::Decoder> dec_;
  std::unique_ptr<msrm::Restorer> restorer_;
  ExecutionState exec_;
  std::uint64_t header_signature_ = 0;
  std::size_t restore_depth_ = 0;     ///< frames entered while restoring
  std::size_t globals_bound_ = 0;
  /// `mig.restore` span: opened by begin_restore, closed when the
  /// skeleton re-execution reaches the migration poll-point. Must open
  /// and close on the same (destination) thread.
  std::unique_ptr<obs::Span> restore_span_;

  MigrationMetrics metrics_;
};

}  // namespace hpm::mig
