// MSRLT: block tracking, address search, logical ids, visit marking,
// name interning, and the statistics counters the complexity experiments
// rely on.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "mig/context.hpp"
#include "msr/graph.hpp"
#include "msr/host_space.hpp"
#include "msr/msrlt.hpp"
#include "msrm/collect.hpp"
#include "msrm/restore.hpp"
#include "obs/metrics.hpp"
#include "ti/describe.hpp"
#include "ti/table.hpp"

namespace hpm::msr {
namespace {

obs::MetricsSnapshot snap() { return obs::Registry::process().snapshot(); }

TEST(Msrlt, RegisterAssignsSegmentTaggedIds) {
  Msrlt t;
  const BlockId g = t.register_block(Segment::Global, 0x1000, 16, 1, 1, "g");
  const BlockId h = t.register_block(Segment::Heap, 0x2000, 16, 1, 1, "h");
  const BlockId s = t.register_block(Segment::Stack, 0x3000, 16, 1, 1, "s");
  EXPECT_EQ(block_segment(g), Segment::Global);
  EXPECT_EQ(block_segment(h), Segment::Heap);
  EXPECT_EQ(block_segment(s), Segment::Stack);
  EXPECT_EQ(t.block_count(), 3u);
  EXPECT_NE(g, h);
}

TEST(Msrlt, SequenceNumbersAreNeverReused) {
  Msrlt t;
  const BlockId first = t.register_block(Segment::Heap, 0x1000, 8, 1, 1, "");
  t.unregister(0x1000);
  const BlockId second = t.register_block(Segment::Heap, 0x1000, 8, 1, 1, "");
  EXPECT_NE(first, second);
  EXPECT_EQ(t.find_id(first), nullptr);
  EXPECT_NE(t.find_id(second), nullptr);
}

TEST(Msrlt, FindContainingHitsInteriorAddresses) {
  Msrlt t;
  const BlockId id = t.register_block(Segment::Heap, 0x1000, 64, 1, 1, "blk");
  EXPECT_EQ(t.find_containing(0x0FFF), nullptr);
  ASSERT_NE(t.find_containing(0x1000), nullptr);
  EXPECT_EQ(t.find_containing(0x1000)->id, id);
  EXPECT_EQ(t.find_containing(0x103F)->id, id);
  EXPECT_EQ(t.find_containing(0x1040), nullptr);
}

TEST(Msrlt, FindContainingAmongManyBlocks) {
  Msrlt t;
  for (int i = 0; i < 100; ++i) {
    t.register_block(Segment::Heap, 0x1000 + i * 0x100, 0x80, 1, 1, "");
  }
  const MemoryBlock* mid = t.find_containing(0x1000 + 57 * 0x100 + 0x7F);
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->base, 0x1000u + 57 * 0x100);
  EXPECT_EQ(t.find_containing(0x1000 + 57 * 0x100 + 0x80), nullptr);  // gap
}

TEST(Msrlt, OverlapsAreRejectedInBothDirections) {
  Msrlt t;
  t.register_block(Segment::Heap, 0x1000, 0x100, 1, 1, "a");
  EXPECT_THROW(t.register_block(Segment::Heap, 0x10FF, 8, 1, 1, "tail"), MsrError);
  EXPECT_THROW(t.register_block(Segment::Heap, 0x0FF9, 8, 1, 1, "head"), MsrError);
  EXPECT_THROW(t.register_block(Segment::Heap, 0x1050, 8, 1, 1, "inside"), MsrError);
  EXPECT_THROW(t.register_block(Segment::Heap, 0x0800, 0x1000, 1, 1, "around"), MsrError);
  EXPECT_NO_THROW(t.register_block(Segment::Heap, 0x1100, 8, 1, 1, "adjacent"));
}

TEST(Msrlt, ZeroSizedBlocksAreRejected) {
  Msrlt t;
  EXPECT_THROW(t.register_block(Segment::Heap, 0x1000, 0, 1, 1, ""), MsrError);
}

TEST(Msrlt, RangesEndingPastTheAddressSpaceAreRejected) {
  // base + size overflowing 2^64 would wrap the block's end to a small
  // address, hiding it from both the overlap check and the containing
  // search. Such a block is rejected and leaves the table unchanged.
  constexpr Address kTop = ~Address{0} - 0xF;  // 0xFFFF...F0
  Msrlt t;
  EXPECT_THROW(t.register_block(Segment::Heap, kTop, 0x20, 1, 1, "wraps"), MsrError);
  EXPECT_EQ(t.block_count(), 0u);
  EXPECT_EQ(t.tracked_bytes(), 0u);
  EXPECT_NO_THROW(t.register_block(Segment::Heap, 0x8, 0x8, 1, 1, "low"));

  // An end of exactly 2^64 wraps to 0 as well.
  Msrlt u;
  EXPECT_THROW(u.register_block(Segment::Heap, kTop, 0x10, 1, 1, "ends at 2^64"), MsrError);
  EXPECT_EQ(u.block_count(), 0u);
  EXPECT_EQ(u.find_containing(kTop + 8), nullptr);
  EXPECT_EQ(u.find_id(make_block_id(Segment::Heap, 1)), nullptr);  // no id left behind

  // A block ending at 2^64 - 1 is legal, found, and guarded.
  const BlockId top = u.register_block(Segment::Heap, kTop, 0xF, 1, 1, "top");
  ASSERT_NE(u.find_containing(kTop + 8), nullptr);
  EXPECT_EQ(u.find_containing(kTop + 8)->id, top);
  EXPECT_EQ(u.find_containing(~Address{0}), nullptr);
  EXPECT_THROW(u.register_block(Segment::Heap, kTop + 8, 4, 1, 1, "inside"), MsrError);
  EXPECT_EQ(u.block_count(), 1u);
}

TEST(Msrlt, UnregisterUnknownBaseThrows) {
  Msrlt t;
  t.register_block(Segment::Heap, 0x1000, 16, 1, 1, "");
  EXPECT_THROW(t.unregister(0x1001), MsrError);  // interior, not base
  EXPECT_NO_THROW(t.unregister(0x1000));
  EXPECT_THROW(t.unregister(0x1000), MsrError);
}

TEST(Msrlt, VisitMarkingIsPerTraversal) {
  Msrlt t;
  const BlockId a = t.register_block(Segment::Heap, 0x1000, 16, 1, 1, "");
  const BlockId b = t.register_block(Segment::Heap, 0x2000, 16, 1, 1, "");
  t.begin_traversal();
  EXPECT_TRUE(t.try_mark(a));
  EXPECT_FALSE(t.try_mark(a));  // the duplicate guard
  EXPECT_TRUE(t.try_mark(b));
  t.begin_traversal();  // O(1) epoch bump clears all marks
  EXPECT_TRUE(t.try_mark(a));
  EXPECT_THROW(t.try_mark(make_block_id(Segment::Heap, 999)), MsrError);
}

TEST(Msrlt, RegistryCountsSearchesAndUpdates) {
  const obs::MetricsSnapshot before = snap();
  Msrlt t;
  t.register_block(Segment::Heap, 0x1000, 16, 1, 1, "");
  t.register_block(Segment::Heap, 0x2000, 16, 1, 1, "");
  t.find_containing(0x1008);
  t.find_containing(0x9999);
  const obs::MetricsSnapshot delta = snap().delta_since(before);
  EXPECT_EQ(delta.counter("msr.msrlt.registrations"), 2u);
  EXPECT_EQ(delta.counter("msr.msrlt.searches"), 2u);
  EXPECT_GT(delta.counter("msr.msrlt.search_steps"), 0u);
}

TEST(Msrlt, TrackedBytesFollowRegistrationAndRemoval) {
  Msrlt t;
  EXPECT_EQ(t.tracked_bytes(), 0u);
  t.register_block(Segment::Heap, 0x1000, 48, 1, 1, "");
  t.register_block(Segment::Heap, 0x2000, 16, 1, 1, "");
  EXPECT_EQ(t.tracked_bytes(), 64u);
  t.unregister(0x1000);
  EXPECT_EQ(t.tracked_bytes(), 16u);
}

TEST(Msrlt, MruCacheShortCircuitsRepeatedHits) {
  Msrlt t;
  for (int i = 0; i < 32; ++i) {
    t.register_block(Segment::Heap, 0x1000 + i * 0x100, 0x80, 1, 1, "");
  }
  const obs::MetricsSnapshot before = snap();
  // First probe fills the MRU slot; the rest of the block's interior
  // resolves from it with exactly one step per search.
  for (int i = 0; i < 16; ++i) {
    ASSERT_NE(t.find_containing(0x1500 + i), nullptr);
  }
  const obs::MetricsSnapshot delta = snap().delta_since(before);
  EXPECT_EQ(delta.counter("msr.msrlt.searches"), 16u);
  EXPECT_EQ(delta.counter("msr.msrlt.cache_hits"), 15u);

  // Unregistering any block drops the cached entry (map nodes are stable,
  // but a stale hit after removal would be a use-after-free).
  t.unregister(0x1500);
  const obs::MetricsSnapshot before2 = snap();
  EXPECT_EQ(t.find_containing(0x1500), nullptr);
  EXPECT_NE(t.find_containing(0x1600), nullptr);
  EXPECT_EQ(snap().delta_since(before2).counter("msr.msrlt.cache_hits"), 0u);
}

TEST(Msrlt, PerSegmentCountsFollowRegistrations) {
  Msrlt t;
  t.register_block(Segment::Global, 0x1000, 16, 1, 1, "g");
  t.register_block(Segment::Heap, 0x2000, 16, 1, 1, "h1");
  t.register_block(Segment::Heap, 0x3000, 16, 1, 1, "h2");
  EXPECT_EQ(t.block_count(Segment::Global), 1u);
  EXPECT_EQ(t.block_count(Segment::Stack), 0u);
  EXPECT_EQ(t.block_count(Segment::Heap), 2u);
  t.unregister(0x2000);
  EXPECT_EQ(t.block_count(Segment::Heap), 1u);
  EXPECT_EQ(t.block_count(), 2u);
}

TEST(Msrlt, FindBaseIsExactAndUncounted) {
  Msrlt t;
  const BlockId id = t.register_block(Segment::Heap, 0x1000, 64, 1, 1, "");
  const obs::MetricsSnapshot before = snap();
  ASSERT_NE(t.find_base(0x1000), nullptr);
  EXPECT_EQ(t.find_base(0x1000)->id, id);
  EXPECT_EQ(t.find_base(0x1008), nullptr);  // interior
  EXPECT_EQ(t.find_base(0x2000), nullptr);  // untracked
  EXPECT_EQ(snap().delta_since(before).counter("msr.msrlt.searches"), 0u);
}

struct Link {
  long value;
  Link* next;
};

/// The message of the MsrError `fn` throws ("" if it throws none).
template <typename Fn>
std::string msr_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const MsrError& e) {
    return e.what();
  }
  return {};
}

TEST(Msrlt, NamesSurviveTheSlimEntry) {
  // The overlap error names the block already there.
  Msrlt t;
  t.register_block(Segment::Heap, 0x1000, 0x100, 1, 1, "existing");
  EXPECT_NE(msr_error_of([&] { t.register_block(Segment::Heap, 0x1080, 8, 1, 1, "late"); })
                .find("overlaps existing block 'existing'"),
            std::string::npos);

  ti::TypeTable types;
  ti::StructBuilder<Link> b(types, "link");
  HPM_TI_FIELD(b, Link, value);
  HPM_TI_FIELD(b, Link, next);
  const ti::TypeId link = b.commit();
  HostSpace src(types);
  Link tail{2, nullptr};
  Link head{1, &tail};
  src.track(Segment::Global, head, "head", link);
  src.track(Segment::Heap, tail, "tail", link);

  // The graph shows tracked names.
  const std::string src_dot = MsrGraph::snapshot(src).to_dot();
  EXPECT_NE(src_dot.find("[label=\"head\\n"), std::string::npos) << src_dot;
  EXPECT_NE(src_dot.find("[label=\"tail\\n"), std::string::npos) << src_dot;

  // The collector's interior-pointer error names the block it lies in.
  xdr::Encoder enc;
  {
    msrm::Collector interior(src, enc);
    EXPECT_NE(msr_error_of([&] {
                interior.save_variable(reinterpret_cast<Address>(&head.next));
              }).find("lies inside block 'head'"),
              std::string::npos);
  }
  msrm::Collector collector(src, enc);
  collector.save_variable(reinterpret_cast<Address>(&head));
  const Bytes bytes = enc.take();

  // Restored blocks are unnamed: the name table stays empty and the graph
  // renders them by sequence number.
  HostSpace dst(types);
  xdr::Decoder dec(bytes);
  msrm::Restorer restorer(dst, dec);
  restorer.set_auto_bind(true);
  const BlockId root = restorer.restore_variable();
  EXPECT_EQ(dst.msrlt().name_count(), 0u);
  EXPECT_EQ(dst.msrlt().name_of(*dst.msrlt().find_id(root)), "");
  const std::string dst_dot = MsrGraph::snapshot(dst).to_dot();
  EXPECT_NE(dst_dot.find("[label=\"#1\\n"), std::string::npos) << dst_dot;
  EXPECT_EQ(dst_dot.find("head"), std::string::npos) << dst_dot;

  // A repeated name is stored once.
  ti::TypeTable heap_types;
  mig::MigContext ctx(heap_types);
  const std::size_t names_before = ctx.space().msrlt().name_count();
  std::vector<long*> nodes;
  for (int i = 0; i < 1000; ++i) nodes.push_back(ctx.heap_alloc<long>(1, "node"));
  EXPECT_EQ(ctx.space().msrlt().name_count(), names_before + 1);
  const Msrlt& heap = ctx.space().msrlt();
  EXPECT_EQ(heap.name_of(*heap.find_base(reinterpret_cast<Address>(nodes[999]))), "node");
}

TEST(IdTable, PowerOfTwoStridesStaySpread) {
  // No power-of-two stride piles ids onto one home slot, in all three
  // segments at once (equal sequence numbers in each). Lookups and erases
  // are checked against a reference map.
  constexpr std::uint64_t kIds = std::uint64_t{1} << 14;
  constexpr Segment kSegments[] = {Segment::Global, Segment::Stack, Segment::Heap};
  std::vector<MemoryBlock> values(3 * kIds);
  for (unsigned k = 0; k <= 24; ++k) {
    IdTable<MemoryBlock> table;
    std::unordered_map<BlockId, MemoryBlock*> ref;
    std::vector<BlockId> ids;
    for (const Segment seg : kSegments) {
      for (std::uint64_t i = 0; i < kIds; ++i) {
        const BlockId id = make_block_id(seg, 1 + (i << k));
        MemoryBlock* value = &values[ids.size()];
        ASSERT_TRUE(table.insert(id, value)) << "k=" << k << " id=" << id;
        ref.emplace(id, value);
        ids.push_back(id);
      }
    }
    ASSERT_EQ(table.size(), ids.size());
    EXPECT_LE(table.max_probe(), 16u) << "stride 2^" << k;
    // Erase every other id (backward shifts), then look everything up.
    for (std::size_t j = 0; j < ids.size(); j += 2) {
      ASSERT_TRUE(table.erase(ids[j])) << "k=" << k;
      ref.erase(ids[j]);
    }
    for (const BlockId id : ids) {
      const auto it = ref.find(id);
      ASSERT_EQ(table.find(id), it == ref.end() ? nullptr : it->second) << "k=" << k;
    }
    for (std::size_t j = 1; j < ids.size(); j += 2) ASSERT_TRUE(table.erase(ids[j]));
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.find(ids.back()), nullptr);
  }
}

TEST(IdTable, MatchesAReferenceMapUnderRandomChurn) {
  // Random inserts, erases and lookups against std::unordered_map, with
  // ids from a small range so probe runs collide, wrap and get
  // backward-shifted on erase.
  IdTable<MemoryBlock> table;
  std::unordered_map<BlockId, MemoryBlock*> ref;
  std::vector<MemoryBlock> blocks(512);
  Rng rng(42);
  for (int step = 0; step < 200000; ++step) {
    const std::uint64_t seq = rng.next_below(512);
    const BlockId id = make_block_id(Segment::Heap, seq + 1);
    MemoryBlock* value = &blocks[seq];
    switch (rng.next_below(3)) {
      case 0:
        ASSERT_EQ(table.insert(id, value), ref.emplace(id, value).second) << step;
        break;
      case 1:
        ASSERT_EQ(table.erase(id), ref.erase(id) == 1) << step;
        break;
      default: {
        const auto it = ref.find(id);
        ASSERT_EQ(table.find(id), it == ref.end() ? nullptr : it->second) << step;
      }
    }
    ASSERT_EQ(table.size(), ref.size());
  }
  for (std::uint64_t seq = 1; seq <= 512; ++seq) {
    const BlockId id = make_block_id(Segment::Heap, seq);
    const auto it = ref.find(id);
    EXPECT_EQ(table.find(id), it == ref.end() ? nullptr : it->second) << id;
  }
  EXPECT_FALSE(table.insert(kInvalidBlock, &blocks[0]));
  EXPECT_EQ(table.find(kInvalidBlock), nullptr);
  EXPECT_FALSE(table.erase(kInvalidBlock));
}

}  // namespace
}  // namespace hpm::msr
