#include "msrm/par_collect.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "msr/frozen_index.hpp"
#include "msr/resolve.hpp"
#include "msrm/collect.hpp"
#include "obs/metrics.hpp"
#include "ti/leaf.hpp"

namespace hpm::msrm {

namespace {

constexpr std::uint32_t kUnowned = 0xFFFFFFFFu;

/// Per-thread memo over FrozenIndex::find_containing — the same
/// set-associative shape as the live MSRLT's search cache (64 sets x 4
/// ways, block-granule bits folded into the set index), but with no epoch
/// column: the snapshot is immutable, so a filled way stays valid for the
/// whole collection. Each worker owns one memo (no sharing, no locks,
/// clean under TSan by construction); its hit count is flushed once per
/// worker into `msrm.collect.par.memo_hits`. Pointer-chasing workloads
/// revisit the same few blocks in bursts, so the memo turns the O(log n)
/// binary search into an O(1) probe for the common repeats.
class FrozenMemo {
 public:
  explicit FrozenMemo(const msr::FrozenIndex& fz) : fz_(fz) {}

  const msr::MemoryBlock* find(msr::Address addr) {
    const std::size_t set = set_of(addr);
    for (std::size_t w = 0; w < kWays; ++w) {
      const msr::MemoryBlock* b = ways_[set][w];
      if (b != nullptr && addr - b->base < b->size) {
        ++hits_;
        return b;
      }
    }
    std::uint64_t steps = 0;
    const msr::MemoryBlock* b = fz_.find_containing(addr, steps);
    if (b != nullptr) {
      ways_[set][cursor_[set]] = b;
      cursor_[set] = static_cast<std::uint8_t>((cursor_[set] + 1) % kWays);
    }
    return b;
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }

 private:
  static constexpr std::size_t kSets = 64;
  static constexpr std::size_t kWays = 4;

  static std::size_t set_of(msr::Address addr) {
    std::uint64_t g = addr >> 6;
    g ^= g >> 12;
    return static_cast<std::size_t>(g & (kSets - 1));
  }

  const msr::FrozenIndex& fz_;
  const msr::MemoryBlock* ways_[kSets][kWays] = {};
  std::uint8_t cursor_[kSets] = {};
  std::uint64_t hits_ = 0;
};

/// CAS-min claim. True iff `rank` lowered the cell — the caller must then
/// (re-)descend into the block, because everything below it may now be
/// claimable at the lower rank. Values only decrease, so re-descents
/// terminate.
bool claim(std::atomic<std::uint32_t>& cell, std::uint32_t rank) {
  std::uint32_t cur = cell.load(std::memory_order_relaxed);
  while (rank < cur) {
    if (cell.compare_exchange_weak(cur, rank, std::memory_order_relaxed)) return true;
  }
  return false;
}

/// Phase 1 worker body: claim owner[slot] = min rank over roots reaching
/// the block, walking only pointer leaves. Invalid roots and dangling
/// pointers are skipped here — phase 2 reaches them in serial stream
/// order and throws the serial path's exact error.
void ownership_from_root(const msr::MemorySpace& space, const msr::FrozenIndex& fz,
                         FrozenMemo& memo,
                         const std::vector<std::vector<ti::LeafRef>>& ptr_leaves,
                         std::atomic<std::uint32_t>* owner, std::uint32_t rank,
                         msr::Address root, std::vector<std::uint32_t>& stack) {
  const msr::MemoryBlock* rb = memo.find(root);
  if (rb == nullptr || rb->base != root) return;
  const std::uint32_t rslot = fz.slot_of(rb->id);
  if (claim(owner[rslot], rank)) stack.push_back(rslot);
  while (!stack.empty()) {
    const std::uint32_t slot = stack.back();
    stack.pop_back();
    const msr::MemoryBlock* block = fz.block_at(slot);
    const std::vector<ti::LeafRef>& leaves = ptr_leaves[block->type];
    if (leaves.empty()) continue;
    const std::uint64_t elem_size = space.layouts().of(block->type).size;
    for (std::uint32_t e = 0; e < block->count; ++e) {
      const msr::Address elem_base = block->base + e * elem_size;
      for (const ti::LeafRef& ref : leaves) {
        const msr::Address value = space.read_pointer(elem_base + ref.byte_offset);
        if (value == 0) continue;
        const msr::MemoryBlock* tgt = memo.find(value);
        if (tgt == nullptr) continue;
        const std::uint32_t tslot = fz.slot_of(tgt->id);
        if (claim(owner[tslot], rank)) stack.push_back(tslot);
      }
    }
  }
}

/// Phase 2 collector: one per root, replaying the serial DFS against the
/// precomputed ownership. A block is NEW for rank r iff owner == r and it
/// is r's first local encounter — exactly the serial first-global-visit
/// criterion (see par_collect.hpp).
class RootCollector final : public CollectorBase {
 public:
  RootCollector(msr::MemorySpace& space, xdr::Encoder& enc, LeafCache& leaves,
                const msr::FrozenIndex& fz, FrozenMemo& memo,
                const std::atomic<std::uint32_t>* owner, std::vector<std::uint32_t>& seen,
                std::uint32_t rank)
      : CollectorBase(space, enc, leaves),
        fz_(fz),
        memo_(memo),
        owner_(owner),
        seen_(seen),
        rank_(rank) {}

 protected:
  msr::ResolvedPointer resolve(msr::Address addr) const override {
    // Against the frozen snapshot instead of the live MSRLT: same math,
    // same error text, but none of the msr.msrlt.* search instruments,
    // whose cache is single-threaded.
    return msr::resolve_in(space_, memo_.find(addr), addr);
  }
  bool visit(const msr::MemoryBlock& block) override {
    const std::uint32_t slot = fz_.slot_of(block.id);
    if (owner_[slot].load(std::memory_order_relaxed) != rank_) return false;
    if (seen_[slot] == rank_ + 1) return false;  // per-worker array, per-root epoch
    seen_[slot] = rank_ + 1;
    return true;
  }
  const msr::MemoryBlock* containing(msr::Address addr) const override {
    return memo_.find(addr);
  }

 private:
  const msr::FrozenIndex& fz_;
  FrozenMemo& memo_;  ///< worker-owned; outlives every per-root collector
  const std::atomic<std::uint32_t>* owner_;
  std::vector<std::uint32_t>& seen_;
  std::uint32_t rank_;
};

}  // namespace

void collect_roots(msr::MemorySpace& space, xdr::Encoder& enc,
                   const std::vector<msr::Address>& roots, unsigned threads) {
  if (threads <= 1 || roots.size() < 2) {
    Collector collector(space, enc);
    for (const msr::Address root : roots) collector.save_variable(root);
    return;
  }

  auto& reg = obs::Registry::process();
  obs::Counter& par_runs = reg.counter("msrm.collect.par.runs");
  obs::Counter& par_roots = reg.counter("msrm.collect.par.roots");
  obs::Counter& par_workers = reg.counter("msrm.collect.par.workers");
  obs::Counter& par_bytes = reg.counter("msrm.collect.par.bytes_merged");
  obs::Counter& memo_hits = reg.counter("msrm.collect.par.memo_hits");
  obs::Histogram& root_bytes_hist = reg.histogram("msrm.collect.par.root_bytes");

  const unsigned k = static_cast<unsigned>(
      std::min<std::size_t>(threads, roots.size()));

  // Prewarm every lazy type-metadata memo (layouts, leaf counts, flat
  // leaf lists, pointer/bulk classification): the hot phases below read
  // this state from many threads and must never be first to fill it.
  const std::size_t ntypes = space.types().size();
  LeafCache shared_leaves(space);
  std::vector<std::vector<ti::LeafRef>> ptr_leaves(ntypes + 1);
  for (ti::TypeId t = 1; t <= ntypes; ++t) {
    space.layouts().of(t);
    space.leaves().count(t);
    const bool has_ptr = space.types().contains_pointer(t);
    if (!space.types().bulk_eligible(t)) shared_leaves.of(t);
    if (has_ptr) {
      ti::for_each_leaf(space.leaves(), space.layouts(), t, [&](const ti::LeafRef& ref) {
        if (ref.is_pointer) ptr_leaves[t].push_back(ref);
      });
    }
  }

  space.msrlt().begin_traversal();  // parity with the serial collector
  const msr::FrozenIndex fz = space.msrlt().freeze();
  const std::uint32_t n = static_cast<std::uint32_t>(fz.size());

  std::vector<std::atomic<std::uint32_t>> owner(n);
  for (auto& cell : owner) cell.store(kUnowned, std::memory_order_relaxed);

  // Phase 1: parallel CAS-min ownership (static root -> worker stripes).
  {
    std::vector<std::exception_ptr> oerr(k);
    std::vector<std::uint64_t> whits(k, 0);
    std::vector<std::thread> pool;
    pool.reserve(k);
    for (unsigned w = 0; w < k; ++w) {
      pool.emplace_back([&, w] {
        std::vector<std::uint32_t> stack;
        FrozenMemo memo(fz);
        try {
          for (std::size_t r = w; r < roots.size(); r += k) {
            ownership_from_root(space, fz, memo, ptr_leaves, owner.data(),
                                static_cast<std::uint32_t>(r), roots[r], stack);
          }
        } catch (...) {
          oerr[w] = std::current_exception();
        }
        whits[w] = memo.hits();  // flushed once per worker, summed below
      });
    }
    for (std::thread& t : pool) t.join();
    for (const std::uint64_t h : whits) memo_hits.add(h);
    for (const std::exception_ptr& e : oerr) {
      if (e) std::rethrow_exception(e);
    }
  }

  // Phase 2: per-root encode into local buffers, merged into `enc` in
  // rank order as soon as each prefix completes (the sink, if armed,
  // streams incrementally). Errors surface at their serial rank: ranks
  // before the first failing root are merged, then its exception is
  // rethrown — same stream prefix and exception the serial path gives.
  struct RootResult {
    Bytes bytes;
    std::exception_ptr error;
    bool done = false;
  };
  std::vector<RootResult> results(roots.size());
  std::mutex mu;
  std::condition_variable cv;

  std::vector<std::uint64_t> whits2(k, 0);
  std::vector<std::thread> pool;
  pool.reserve(k);
  for (unsigned w = 0; w < k; ++w) {
    pool.emplace_back([&, w] {
      std::vector<std::uint32_t> seen(n, 0);
      FrozenMemo memo(fz);
      for (std::size_t r = w; r < roots.size(); r += k) {
        xdr::Encoder local;
        std::exception_ptr err;
        try {
          RootCollector rc(space, local, shared_leaves, fz, memo, owner.data(), seen,
                           static_cast<std::uint32_t>(r));
          rc.save_variable(roots[r]);
        } catch (...) {
          err = std::current_exception();
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          // bytes(), not take(): take() would count a phantom stream in
          // the xdr.encode.* instruments.
          results[r].bytes = local.bytes();
          results[r].error = std::move(err);
          results[r].done = true;
        }
        cv.notify_all();
      }
      whits2[w] = memo.hits();
    });
  }

  std::exception_ptr first_error;
  std::uint64_t merged = 0;
  for (std::size_t r = 0; r < roots.size(); ++r) {
    Bytes bytes;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return results[r].done; });
      if (results[r].error) {
        first_error = results[r].error;
        break;
      }
      bytes = std::move(results[r].bytes);
    }
    enc.put_bytes(bytes.data(), bytes.size());
    merged += bytes.size();
    root_bytes_hist.record(static_cast<double>(bytes.size()));
  }
  for (std::thread& t : pool) t.join();
  for (const std::uint64_t h : whits2) memo_hits.add(h);
  if (first_error) std::rethrow_exception(first_error);

  par_runs.add(1);
  par_roots.add(roots.size());
  par_workers.add(k);
  par_bytes.add(merged);
}

}  // namespace hpm::msrm
