// MigContext: globals, migratable heap, poll triggers, collection
// metrics, and restoration error handling (the runtime half of the
// annotation contract).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "mig/annotate.hpp"
#include "mig/chunk_assembler.hpp"
#include "mig/context.hpp"
#include "msrm/stream.hpp"
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

/// Collect counter_program at poll 7, streaming through a sink of
/// `chunk_bytes` (0 = no sink); the sink's chunks land in *chunks.
void collect_counter(MigContext& src, std::size_t chunk_bytes, std::vector<Bytes>* chunks) {
  if (chunk_bytes != 0) {
    src.set_collect_sink(chunk_bytes, [chunks](std::span<const std::uint8_t> bytes) {
      chunks->emplace_back(bytes.begin(), bytes.end());
    });
  }
  src.set_migrate_at_poll(7);
  int done = 0;
  EXPECT_THROW(counter_program(src, 10, &done), MigrationExit);
}

TEST(MigContext, StreamedCollectionSealsAndDigestsLikeTheUnstreamedOne) {
  // The tap's running CRC seals the trailer and its digest is the
  // report's: both must equal a one-shot pass over the whole stream, for
  // chunk sizes below, around and above the 16-byte CRC block and the
  // stream itself (all-remainder).
  ti::TypeTable t;
  MigContext plain(t);
  collect_counter(plain, 0, nullptr);
  const Bytes& want = plain.stream();
  EXPECT_NO_THROW(msrm::check_stream(want));
  EXPECT_EQ(plain.stream_digest(), msrm::StreamDigest::of(want));
  for (const std::size_t chunk : {1u, 5u, 16u, 17u, 64u, 1u << 20}) {
    std::vector<Bytes> chunks;
    MigContext src(t);
    collect_counter(src, chunk, &chunks);
    EXPECT_EQ(src.stream(), want) << "chunk " << chunk;
    EXPECT_EQ(src.stream_digest(), plain.stream_digest()) << "chunk " << chunk;
    Bytes joined;
    for (const Bytes& c : chunks) joined.insert(joined.end(), c.begin(), c.end());
    EXPECT_EQ(joined, want) << "chunk " << chunk;
  }
}

/// Restore `chunks` through a ChunkAssembler whose StateEnd announces
/// `digest`; returns the digest the commit gate saw. Throws whatever the
/// restore throws.
std::uint64_t restore_chunked(ti::TypeTable& t, const std::vector<Bytes>& chunks,
                              std::uint64_t digest, bool threaded) {
  ChunkAssembler assembler;
  std::uint64_t total = 0;
  for (const Bytes& c : chunks) total += c.size();
  const net::StateEndInfo end{static_cast<std::uint32_t>(chunks.size()), total, digest};
  auto produce = [&] {
    for (std::uint32_t i = 0; i < chunks.size(); ++i) {
      assembler.append(i, chunks[i]);
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

TEST(MigContext, ChunkedRestoreDigestsAsItFetches) {
  // Refills feed the destination digest incrementally; whatever the
  // chunking and however fetches interleave with arrivals, the digest
  // handed to the commit gate is the source's.
  ti::TypeTable t;
  for (const std::size_t chunk : {1u, 16u, 33u, 4096u}) {
    std::vector<Bytes> chunks;
    MigContext src(t);
    collect_counter(src, chunk, &chunks);
    for (const bool threaded : {false, true}) {
      EXPECT_EQ(restore_chunked(t, chunks, src.stream_digest(), threaded), src.stream_digest())
          << "chunk " << chunk << " threaded " << threaded;
    }
  }
}

TEST(MigContext, ChunkedRestoreChecksDigestFirstThenTrailer) {
  ti::TypeTable t;
  std::vector<Bytes> chunks;
  MigContext src(t);
  collect_counter(src, 16, &chunks);
  Bytes stream = src.stream();

  // A damaged trailer CRC against the source's digest: the digest check
  // runs first and names the damage.
  std::vector<Bytes> bad_trailer = chunks;
  bad_trailer.back().back() ^= 0x01;
  EXPECT_THROW(restore_chunked(t, bad_trailer, src.stream_digest(), false), MigrationError);

  // The same damage with a digest forged to match it: the trailer check,
  // fed the payload CRC from the same pass, still objects.
  stream.back() ^= 0x01;
  EXPECT_THROW(restore_chunked(t, bad_trailer, msrm::StreamDigest::of(stream), false),
               WireError);
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
