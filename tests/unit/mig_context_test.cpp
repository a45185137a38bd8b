// MigContext: globals, migratable heap, poll triggers, collection
// metrics, and restoration error handling (the runtime half of the
// annotation contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <thread>
#include <vector>

#include "apps/bitonic.hpp"
#include "mig/annotate.hpp"
#include "mig/chunk_assembler.hpp"
#include "mig/context.hpp"
#include "msrm/stream.hpp"
#include "obs/metrics.hpp"
#include "ti/describe.hpp"

namespace hpm::mig {
namespace {

struct Pair {
  int a;
  int b;
};

void register_pair(ti::TypeTable& t) {
  ti::StructBuilder<Pair> b(t, "pair");
  HPM_TI_FIELD(b, Pair, a);
  HPM_TI_FIELD(b, Pair, b);
  b.commit();
}

/// Minimal migratable program: loops `n` times, polling each iteration;
/// counts completed iterations into *out.
void counter_program(MigContext& ctx, int n, int* out) {
  HPM_FUNCTION(ctx);
  int i, done;
  HPM_LOCAL(ctx, i);
  HPM_LOCAL(ctx, done);
  HPM_LOCAL(ctx, n);
  HPM_BODY(ctx);
  done = 0;
  for (i = 0; i < n; ++i) {
    HPM_POLL(ctx, 1);
    ++done;
  }
  *out = done;
  HPM_BODY_END(ctx);
}

TEST(MigContext, GlobalsAreZeroInitializedAndTracked) {
  ti::TypeTable t;
  register_pair(t);
  MigContext ctx(t);
  Pair& p = ctx.global<Pair>("p");
  EXPECT_EQ(p.a, 0);
  EXPECT_EQ(p.b, 0);
  int* arr = ctx.global_array<int>("arr", 16);
  EXPECT_EQ(arr[15], 0);
  EXPECT_EQ(ctx.space().msrlt().block_count(), 2u);
}

TEST(MigContext, GlobalAfterFrameEntryIsRejected) {
  ti::TypeTable t;
  MigContext ctx(t);
  FrameGuard guard(ctx, "f");
  EXPECT_THROW(ctx.global<int>("late"), MigrationError);
}

TEST(MigContext, HeapAllocRegistersAndFreeUnregisters) {
  ti::TypeTable t;
  register_pair(t);
  MigContext ctx(t);
  Pair* p = ctx.heap_alloc<Pair>(3, "trio");
  EXPECT_EQ(ctx.space().msrlt().block_count(), 1u);
  EXPECT_EQ(ctx.live_heap_blocks(), 1u);
  EXPECT_EQ(p[2].b, 0);
  ctx.heap_free(p);
  EXPECT_EQ(ctx.space().msrlt().block_count(), 0u);
  EXPECT_EQ(ctx.live_heap_blocks(), 0u);
  int untracked = 0;
  EXPECT_THROW(ctx.heap_free(&untracked), MigrationError);
}

TEST(MigContext, HeapFreeRejectsWhatTheHeapDoesNotOwn) {
  // The MSRLT is the heap's ledger: only the base of a live heap block
  // may be freed.
  ti::TypeTable t;
  register_pair(t);
  MigContext ctx(t);
  Pair& global = ctx.global<Pair>("global");
  Pair* p = ctx.heap_alloc<Pair>(2, "p");
  {
    FrameGuard guard(ctx, "f");
    Pair local{};
    ctx.local(guard.frame(), "local", local);
    EXPECT_THROW(ctx.heap_free(&local), MigrationError);  // tracked stack local
  }
  int untracked = 0;
  EXPECT_THROW(ctx.heap_free(&untracked), MigrationError);  // untracked stack
  EXPECT_THROW(ctx.heap_free(&global), MigrationError);     // a global
  EXPECT_THROW(ctx.heap_free(&p[1]), MigrationError);       // interior, element-aligned
  EXPECT_THROW(ctx.heap_free(&p->b), MigrationError);       // interior, mid-element
  EXPECT_EQ(ctx.live_heap_blocks(), 1u);
  ctx.heap_free(p);
  EXPECT_EQ(ctx.live_heap_blocks(), 0u);
  EXPECT_THROW(ctx.heap_free(p), MigrationError);  // double free
  EXPECT_EQ(ctx.space().msrlt().block_count(), 1u);  // the global stays
}

TEST(MigContext, ProgramRunsToCompletionWithoutTrigger) {
  ti::TypeTable t;
  MigContext ctx(t);
  int done = 0;
  counter_program(ctx, 10, &done);
  EXPECT_EQ(done, 10);
  EXPECT_EQ(ctx.poll_count(), 10u);
  EXPECT_EQ(ctx.frame_depth(), 0u);              // frame unwound
  EXPECT_EQ(ctx.space().msrlt().block_count(), 0u);  // locals unregistered
}

TEST(MigContext, PollTriggerCollectsAndThrowsMigrationExit) {
  ti::TypeTable t;
  MigContext ctx(t);
  ctx.set_migrate_at_poll(4);
  int done = 0;
  EXPECT_THROW(counter_program(ctx, 10, &done), MigrationExit);
  EXPECT_EQ(done, 0);  // never reached the write
  EXPECT_EQ(ctx.poll_count(), 4u);
  EXPECT_GT(ctx.stream().size(), 0u);
  EXPECT_GT(ctx.metrics().stream_bytes, 0u);
  EXPECT_EQ(ctx.metrics().collect.counter("msrm.collect.blocks_saved"), 3u);  // i, done, n
}

TEST(MigContext, AsyncRequestIsHonoredAtNextPoll) {
  ti::TypeTable t;
  MigContext ctx(t);
  ctx.request_migration();
  int done = 0;
  EXPECT_THROW(counter_program(ctx, 10, &done), MigrationExit);
  EXPECT_EQ(ctx.poll_count(), 1u);
}

TEST(MigContext, RestoreResumesTheLoopExactlyWhereItStopped) {
  ti::TypeTable t;
  MigContext src(t);
  src.set_migrate_at_poll(7);
  int src_done = 0;
  EXPECT_THROW(counter_program(src, 10, &src_done), MigrationExit);

  MigContext dst(t);
  dst.begin_restore(src.stream());
  int dst_done = 0;
  counter_program(dst, 10, &dst_done);
  // 6 iterations completed before migration (the 7th poll fired before
  // its ++done), so the destination finishes the remaining 4.
  EXPECT_EQ(dst_done, 10);
  EXPECT_EQ(dst.mode(), Mode::Normal);
  EXPECT_GT(dst.metrics().restore_seconds, 0.0);
}

TEST(MigContext, RestoreWithWrongProgramIsRejected) {
  ti::TypeTable t;
  MigContext src(t);
  src.set_migrate_at_poll(2);
  int x = 0;
  EXPECT_THROW(counter_program(src, 5, &x), MigrationExit);

  // "Different binary": a program whose frame is a different function.
  auto other_program = [](MigContext& ctx) {
    HPM_FUNCTION(ctx);
    int i;
    HPM_LOCAL(ctx, i);
    HPM_BODY(ctx);
    for (i = 0; i < 3; ++i) {
      HPM_POLL(ctx, 1);
    }
    HPM_BODY_END(ctx);
  };
  MigContext dst(t);
  dst.begin_restore(src.stream());
  EXPECT_THROW(other_program(dst), MigrationError);
}

TEST(MigContext, RestoreDetectsLocalListMismatch) {
  ti::TypeTable t;
  MigContext src(t);
  src.set_migrate_at_poll(1);
  int x = 0;
  EXPECT_THROW(counter_program(src, 5, &x), MigrationExit);

  // Same function name, fewer registered locals.
  auto stripped = [](MigContext& ctx) {
    FrameGuard guard(ctx, "counter_program");
    auto& hpm_frame_ = guard.frame();
    int i;
    HPM_LOCAL(ctx, i);
    switch (ctx.resume_point(hpm_frame_)) {
      case 0:
      case 1:
        ctx.poll(hpm_frame_, 1);
    }
  };
  MigContext dst(t);
  dst.begin_restore(src.stream());
  EXPECT_THROW(stripped(dst), MigrationError);
}

TEST(MigContext, RestoreRejectsCorruptedStream) {
  ti::TypeTable t;
  MigContext src(t);
  src.set_migrate_at_poll(1);
  int x = 0;
  EXPECT_THROW(counter_program(src, 5, &x), MigrationExit);
  Bytes bad = src.stream();
  bad[bad.size() / 2] ^= 0xFF;
  MigContext dst(t);
  EXPECT_THROW(dst.begin_restore(bad), WireError);
}

TEST(MigContext, RestoreRejectsTruncatedStream) {
  ti::TypeTable t;
  MigContext src(t);
  src.set_migrate_at_poll(1);
  int x = 0;
  EXPECT_THROW(counter_program(src, 5, &x), MigrationExit);
  Bytes cut = src.stream();
  cut.resize(cut.size() - 1);
  MigContext dst(t);
  EXPECT_THROW(dst.begin_restore(cut), WireError);
}

/// Collect counter_program at poll 7 at leaf size `chunk_bytes`, streaming
/// through a sink when `chunks` is non-null: the sink's chunks land in
/// *chunks and the digests it was handed in *digests.
void collect_counter(MigContext& src, std::uint32_t chunk_bytes, std::vector<Bytes>* chunks,
                     std::vector<std::uint64_t>* digests = nullptr) {
  src.set_leaf_bytes(chunk_bytes);
  if (chunks != nullptr) {
    src.set_collect_sink([chunks, digests](std::span<const std::uint8_t> bytes,
                                           std::uint64_t digest) {
      chunks->emplace_back(bytes.begin(), bytes.end());
      if (digests != nullptr) digests->push_back(digest);
    });
  }
  src.set_migrate_at_poll(7);
  int done = 0;
  EXPECT_THROW(counter_program(src, 10, &done), MigrationExit);
}

TEST(MigContext, StreamedCollectionSealsAndDigestsLikeTheUnstreamedOne) {
  // At one leaf size, a streamed and an unstreamed collection make the
  // same stream, the same chunk digests and the same root, which is the
  // leaf root of the stream's payload; the sink hands out exactly the
  // stream in chunk_bytes slices, each with its StreamDigest. Leaf sizes
  // run below, around and above the 32-byte digest stripe and the stream
  // itself (all-remainder).
  ti::TypeTable t;
  for (const std::uint32_t chunk : {1u, 5u, 9u, 16u, 17u, 32u, 33u, 64u, 1u << 20}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    MigContext plain(t);
    collect_counter(plain, chunk, nullptr);
    const Bytes& want = plain.stream();
    EXPECT_NO_THROW(msrm::check_stream(want));
    EXPECT_EQ(msrm::read_header(want).leaf_bytes, chunk);
    EXPECT_EQ(plain.stream_digest(),
              msrm::leaf_root(std::span(want).first(want.size() - msrm::kTrailerBytes), chunk));

    std::vector<Bytes> chunks;
    std::vector<std::uint64_t> digests;
    MigContext src(t);
    collect_counter(src, chunk, &chunks, &digests);
    EXPECT_EQ(src.stream(), want);
    EXPECT_EQ(src.stream_digest(), plain.stream_digest());
    EXPECT_EQ(src.chunk_digests(), plain.chunk_digests());
    EXPECT_EQ(digests, src.chunk_digests());
    Bytes joined;
    ASSERT_EQ(chunks.size(), (want.size() + chunk - 1) / chunk);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_EQ(digests[i], StreamDigest::of(chunks[i])) << "chunk " << i;
      joined.insert(joined.end(), chunks[i].begin(), chunks[i].end());
    }
    EXPECT_EQ(joined, want);
  }
}

/// Restore `chunks` through a ChunkAssembler announcing `chunk_bytes`
/// whose StateEnd carries `digest`; returns the digest the commit gate
/// saw. Throws whatever the restore throws.
std::uint64_t restore_chunked(ti::TypeTable& t, const std::vector<Bytes>& chunks,
                              std::uint32_t chunk_bytes, std::uint64_t digest, bool threaded) {
  ChunkAssembler assembler(chunk_bytes);
  std::uint64_t total = 0;
  for (const Bytes& c : chunks) total += c.size();
  const net::StateEndInfo end{static_cast<std::uint32_t>(chunks.size()), total, digest};
  auto produce = [&] {
    for (std::uint32_t i = 0; i < chunks.size(); ++i) {
      assembler.append(i, chunks[i], StreamDigest::of(chunks[i]));
      if (threaded) std::this_thread::yield();
    }
    assembler.finish(end);
  };
  std::thread producer;
  if (threaded) {
    producer = std::thread(produce);
  } else {
    produce();
  }
  std::uint64_t gated = 0;
  MigContext dst(t);
  dst.set_commit_gate([&gated](std::uint64_t d) { gated = d; });
  int done = 0;
  try {
    dst.begin_restore_streaming(assembler);
    counter_program(dst, 10, &done);
  } catch (...) {
    if (producer.joinable()) producer.join();
    throw;
  }
  if (producer.joinable()) producer.join();
  EXPECT_EQ(done, 10);
  return gated;
}

TEST(MigContext, ChunkedRestoreDerivesTheRootFromChunkDigests) {
  // Whatever the chunking and however fetches interleave with arrivals,
  // the root handed to the commit gate is the source's.
  ti::TypeTable t;
  for (const std::uint32_t chunk : {1u, 9u, 16u, 33u, 4096u}) {
    std::vector<Bytes> chunks;
    MigContext src(t);
    collect_counter(src, chunk, &chunks);
    for (const bool threaded : {false, true}) {
      EXPECT_EQ(restore_chunked(t, chunks, chunk, src.stream_digest(), threaded),
                src.stream_digest())
          << "chunk " << chunk << " threaded " << threaded;
    }
  }
}

TEST(MigContext, ChunkedRestoreChecksDigestFirstThenTrailer) {
  ti::TypeTable t;
  std::vector<Bytes> chunks;
  MigContext src(t);
  collect_counter(src, 16, &chunks);

  // A damaged trailer seal against a digest that disagrees with the
  // stream: the digest check runs first and names the damage.
  std::vector<Bytes> bad_trailer = chunks;
  bad_trailer.back().back() ^= 0x01;
  EXPECT_THROW(restore_chunked(t, bad_trailer, 16, src.stream_digest() ^ 1, false),
               MigrationError);

  // The same damage against the digest the payload does have (the root
  // covers the payload, not the trailer): the trailer check, fed that
  // same root, still objects.
  EXPECT_THROW(restore_chunked(t, bad_trailer, 16, src.stream_digest(), false), WireError);
}

TEST(MigContext, ChunkedRestoreRefusesALeafSizeOtherThanTheAnnouncedChunkSize) {
  // The header's leaf size must be StateBegin's chunk size: the root the
  // destination builds from its chunk digests means nothing otherwise.
  ti::TypeTable t;
  std::vector<Bytes> chunks;
  MigContext src(t);
  collect_counter(src, 16, &chunks);
  for (const std::uint32_t announced : {8u, 17u, 64u * 1024}) {
    try {
      restore_chunked(t, chunks, announced, src.stream_digest(), false);
      ADD_FAILURE() << "announced " << announced << ": restore accepted";
    } catch (const WireError& e) {
      EXPECT_NE(std::string(e.what()).find("disagrees"), std::string::npos) << e.what();
    }
  }
}

TEST(MigContext, RestoredHeapBlocksCanBeFreedNormally) {
  ti::TypeTable t;
  register_pair(t);
  auto program = [](MigContext& ctx, Pair** keep) {
    HPM_FUNCTION(ctx);
    Pair* p;
    HPM_LOCAL(ctx, p);
    HPM_BODY(ctx);
    p = ctx.heap_alloc<Pair>(1, "p");
    p->a = 4;
    p->b = 2;
    HPM_POLL(ctx, 1);
    *keep = p;
    HPM_BODY_END(ctx);
  };
  MigContext src(t);
  src.set_migrate_at_poll(1);
  Pair* out = nullptr;
  EXPECT_THROW(program(src, &out), MigrationExit);

  MigContext dst(t);
  dst.begin_restore(src.stream());
  program(dst, &out);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->a, 4);
  EXPECT_EQ(out->b, 2);
  EXPECT_EQ(dst.live_heap_blocks(), 1u);
  EXPECT_NO_THROW(dst.heap_free(out));
  EXPECT_EQ(dst.live_heap_blocks(), 0u);
}

TEST(MigContext, ChainMigrationHopsTwice) {
  // Migrate source -> B, then B -> C while B is still mid-loop.
  ti::TypeTable t;
  MigContext a(t);
  a.set_migrate_at_poll(3);
  int done = 0;
  EXPECT_THROW(counter_program(a, 12, &done), MigrationExit);

  MigContext b(t);
  b.begin_restore(a.stream());
  b.set_migrate_at_poll(4);  // four polls after restoration begins
  EXPECT_THROW(counter_program(b, 12, &done), MigrationExit);

  MigContext c(t);
  c.begin_restore(b.stream());
  counter_program(c, 12, &done);
  EXPECT_EQ(done, 12);
}

TEST(MigContext, BeginRestoreTwiceOrLateIsRejected) {
  ti::TypeTable t;
  MigContext src(t);
  src.set_migrate_at_poll(1);
  int x = 0;
  EXPECT_THROW(counter_program(src, 3, &x), MigrationExit);
  MigContext dst(t);
  {
    FrameGuard guard(dst, "f");
    EXPECT_THROW(dst.begin_restore(src.stream()), MigrationError);
  }
}

TEST(MigrationMetrics, CollectStatsMatchTheStreamedGraph) {
  ti::TypeTable t;
  register_pair(t);
  auto program = [](MigContext& ctx) {
    HPM_FUNCTION(ctx);
    Pair* x;
    Pair* also_x;
    HPM_LOCAL(ctx, x);
    HPM_LOCAL(ctx, also_x);
    HPM_BODY(ctx);
    x = ctx.heap_alloc<Pair>(1, "x");
    also_x = x;  // sharing: second edge to the same block
    HPM_POLL(ctx, 1);
    ctx.heap_free(x);
    (void)also_x;
    HPM_BODY_END(ctx);
  };
  MigContext src(t);
  src.set_migrate_at_poll(1);
  EXPECT_THROW(program(src), MigrationExit);
  // Blocks: x's var, also_x's var, the heap pair. One PREF for the share.
  EXPECT_EQ(src.metrics().collect.counter("msrm.collect.blocks_saved"), 3u);
  EXPECT_EQ(src.metrics().collect.counter("msrm.collect.refs_saved"), 1u);
}


/// Bitonic 2^10 (2047 heap nodes), collected at its first poll-point.
Bytes bitonic_stream(ti::TypeTable& t) {
  MigContext src(t);
  src.set_migrate_at_poll(1);
  apps::BitonicResult result;
  EXPECT_THROW(apps::bitonic_program(src, 10, 7, &result), MigrationExit);
  return src.stream();
}

/// Re-seal an edited payload (a stream minus its 9-byte trailer), so the
/// damage reaches the decoder instead of failing the trailer check.
Bytes reseal(std::span<const std::uint8_t> payload) {
  xdr::Encoder enc;
  enc.put_bytes(payload.data(), payload.size());
  msrm::finish_stream(enc);
  return enc.take();
}

TEST(MigrationMetrics, RestoreCountersAreExactForBitonic) {
  // The Restorer tallies locally and flushes once per variable record:
  // the registry must see every event exactly once. At the first poll the
  // frozen stack holds 14 frames' locals — 28 variables, 14 of them
  // pointers (root, ten sort_rec nodes, merge_rec's node, cswap's x, y).
  ti::TypeTable t;
  apps::bitonic_register_types(t);
  const Bytes stream = bitonic_stream(t);

  auto depth_count = [] {
    const obs::MetricsSnapshot now = obs::Registry::process().snapshot();
    const obs::HistogramSummary* h = now.histogram("msrm.restore.depth");
    return h == nullptr ? std::uint64_t{0} : h->count;
  };
  const std::uint64_t depth_before = depth_count();
  MigContext dst(t);
  dst.begin_restore(stream);
  dst.set_stop_after_restore(true);
  apps::BitonicResult result;
  EXPECT_THROW(apps::bitonic_program(dst, 10, 7, &result), MigrationExit);
  const obs::MetricsSnapshot& m = dst.metrics().restore;
  EXPECT_EQ(m.counter("msrm.restore.blocks_created"), 2047u);  // 2^11 - 1 nodes
  EXPECT_EQ(m.counter("msrm.restore.blocks_bound"), 28u);      // every local
  // Two links per node, plus the 14 pointer locals.
  EXPECT_EQ(m.counter("msrm.restore.ptr_leaves"), 2u * 2047 + 14);
  EXPECT_EQ(m.counter("msrm.restore.nulls_restored"), 2048u);  // both links of 1024 leaves
  // One depth sample per pushed (non-flat) block: nodes and pointer locals.
  const obs::HistogramSummary* depth = m.histogram("msrm.restore.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->count - depth_before, 2047u + 14);
  EXPECT_EQ(dst.live_heap_blocks(), 2047u);
}

TEST(MigContext, FailedRestoresLeakNothing) {
  // Whatever a failed restore allocated stays on the destination heap's
  // books (the MSRLT) and is freed with the context; LeakSanitizer checks
  // the asan build. Three failures: a stream cut midway through the
  // tree, a zero-count PNEW, and a PNEW claiming 2^32-1 nodes.
  ti::TypeTable t;
  apps::bitonic_register_types(t);
  const Bytes stream = bitonic_stream(t);
  const std::span<const std::uint8_t> payload(stream.data(),
                                              stream.size() - msrm::kTrailerBytes);

  // The first heap-node PNEW: ...u8 segment, u32 type, u32 count = 1.
  auto pnew_tail = [&t](std::uint32_t count) {
    xdr::Encoder enc;
    enc.put_u8(static_cast<std::uint8_t>(msr::Segment::Heap));
    enc.put_u32(ti::native_type_id<apps::BitonicNode>(t));
    enc.put_u32(count);
    return enc.take();
  };
  const Bytes tail = pnew_tail(1);
  const auto at = std::search(payload.begin(), payload.end(), tail.begin(), tail.end());
  ASSERT_NE(at, payload.end());
  const auto tail_off = static_cast<std::size_t>(at - payload.begin());
  ASSERT_GE(tail_off, 17u);
  ASSERT_EQ(payload[tail_off - 17], msrm::kPtrNew);  // u8 tag, u64 id, u64 leaf

  struct Case {
    const char* name;
    Bytes stream;
    bool allocates;
  };
  std::vector<Case> cases;
  cases.push_back({"truncated", reseal(payload.first(payload.size() / 2)), true});
  for (const std::uint32_t count : {0u, 0xFFFFFFFFu}) {
    Bytes edited(payload.begin(), payload.end());
    const Bytes bad = pnew_tail(count);
    std::copy(bad.begin(), bad.end(), edited.begin() + static_cast<std::ptrdiff_t>(tail_off));
    cases.push_back({count == 0 ? "zero count" : "hostile count", reseal(edited), false});
  }
  for (const Case& c : cases) {
    const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
    std::size_t live = 0;
    {
      MigContext dst(t);
      apps::BitonicResult result;
      EXPECT_THROW(
          {
            dst.begin_restore(c.stream);
            apps::bitonic_program(dst, 10, 7, &result);
          },
          Error)
          << c.name;
      live = dst.live_heap_blocks();
    }
    // The Restorer's tallies flush when the context drops it, failure or not.
    const std::uint64_t created = obs::Registry::process().snapshot().delta_since(before).counter(
        "msrm.restore.blocks_created");
    EXPECT_EQ(live, created) << c.name;
    EXPECT_EQ(created > 0, c.allocates) << c.name;
  }
}

TEST(MigrationMetrics, DeadBlocksStayBehind) {
  // A heap block unreachable from any live variable is dead data: the
  // collection (driven by live-variable analysis) must not ship it, and
  // the metric must account for it.
  ti::TypeTable t;
  register_pair(t);
  auto program = [](MigContext& ctx) {
    HPM_FUNCTION(ctx);
    Pair* kept;
    Pair* dropped;  // deliberately NOT registered: dead at the poll
    HPM_LOCAL(ctx, kept);
    HPM_BODY(ctx);
    kept = ctx.heap_alloc<Pair>(1, "kept");
    dropped = ctx.heap_alloc<Pair>(1, "dropped");
    dropped->a = 1;  // allocated but never referenced by a live var
    HPM_POLL(ctx, 1);
    ctx.heap_free(kept);
    HPM_BODY_END(ctx);
  };
  MigContext src(t);
  src.set_migrate_at_poll(1);
  EXPECT_THROW(program(src), MigrationExit);
  // Tracked: kept's var block, kept's heap block, dropped's heap block.
  EXPECT_EQ(src.metrics().tracked_blocks, 3u);
  EXPECT_EQ(src.metrics().collect.counter("msrm.collect.blocks_saved"), 2u);
  EXPECT_EQ(src.metrics().dead_blocks(), 1u);

  MigContext dst(t);
  dst.begin_restore(src.stream());
  dst.set_stop_after_restore(true);
  EXPECT_THROW(program(dst), MigrationExit);
  // The dead block did not cross: destination only holds what was live
  // (kept's heap block; the stack var was unwound with the frame).
  EXPECT_EQ(dst.live_heap_blocks(), 1u);
}

}  // namespace
}  // namespace hpm::mig
