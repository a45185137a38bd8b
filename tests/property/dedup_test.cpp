// Property tests of the content-addressed dedup transfer (DESIGN.md §15).
//
// The central property: a dedup'd migration restores state BIT-IDENTICAL
// to a non-dedup migration of the same process — regardless of how much
// of the stream the destination's chunk cache already holds. The suite
// sweeps cache overlap from cold (0%) through partial (~50%, ~98%) to a
// full identical re-run (100%), asserting both the workload fingerprint
// and the end-to-end stream digest (which the destination verifies before
// voting, so equal digests certify equal restored streams). On top: the
// identical re-run must move almost nothing (< 5% of the stream's bytes),
// a corrupted cache entry must degrade to a re-requested miss inside the
// same negotiation, and the codec + resume paths must not disturb any of
// it. Labeled `dedup`; runs under the asan-dedup/tsan-dedup presets.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "ckpt/checkpoint.hpp"
#include "hpm/migrate.hpp"
#include "mig/chunk_store.hpp"  // internal unit: ChunkStore::read_run_stats
#include "mig/fleet.hpp"        // internal unit: run_session over a recording port

namespace hpm::mig {
namespace {

namespace fs = std::filesystem;

struct GraphOutcome {
  std::uint64_t fingerprint = 0;
  bool done = false;
};

/// Two independently seeded graphs on the migratable heap: a STABLE one
/// whose seed is fixed across runs and a VARYING one whose seed the test
/// controls. Allocation order is deterministic, so the stable graph's
/// bytes occupy the same stream prefix in every run — the canonical
/// stream's chunks over that prefix are bit-identical and dedup against
/// the cache, while the varying suffix forces misses. The overlap knob is
/// simply the node-count split between the two graphs.
void two_graph_program(MigContext& ctx, std::uint64_t stable_seed,
                       std::uint32_t stable_nodes, std::uint64_t vary_seed,
                       std::uint32_t vary_nodes, GraphOutcome* out) {
  HPM_FUNCTION(ctx);
  apps::RandNode* stable_root;
  apps::RandNode* vary_root;
  int i;
  HPM_LOCAL(ctx, stable_root);
  HPM_LOCAL(ctx, vary_root);
  HPM_LOCAL(ctx, i);
  HPM_BODY(ctx);
  {
    apps::GraphShape shape;
    shape.edge_density = 0.7;
    shape.share_bias = 0.6;
    shape.nodes = stable_nodes;
    stable_root =
        stable_nodes > 0 ? apps::build_random_graph(ctx, stable_seed, shape)[0] : nullptr;
    shape.nodes = vary_nodes;
    vary_root = vary_nodes > 0 ? apps::build_random_graph(ctx, vary_seed, shape)[0] : nullptr;
  }
  for (i = 0; i < 6; ++i) {
    HPM_POLL(ctx, 1);
  }
  out->fingerprint = stable_root != nullptr ? apps::graph_fingerprint(stable_root) : 1;
  if (vary_root != nullptr) {
    out->fingerprint ^= apps::graph_fingerprint(vary_root) * 0x9E3779B97F4A7C15ull;
  }
  out->done = true;
  HPM_BODY_END(ctx);
}

MigrationReport run_two_graph(RunOptions& options, std::uint32_t stable_nodes,
                              std::uint64_t vary_seed, std::uint32_t vary_nodes,
                              GraphOutcome& out) {
  options.register_types = apps::workload_register_types;
  options.program = [&out, stable_nodes, vary_seed, vary_nodes](MigContext& ctx) {
    two_graph_program(ctx, /*stable_seed=*/17, stable_nodes, vary_seed, vary_nodes, &out);
  };
  options.pipeline = true;
  options.chunk_bytes = 512;
  options.migrate_at_poll = 3;
  return run_migration(options);
}

std::string fresh_cache_dir(const char* tag) {
  const std::string dir =
      (fs::temp_directory_path() /
       (std::string("hpm_dedup_") + tag + "_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  return dir;
}

struct OverlapCase {
  const char* tag;
  std::uint32_t stable_nodes;  ///< nodes shared between warm-up and test run
  std::uint32_t vary_nodes;    ///< nodes reseeded for the test run
};

std::string overlap_name(const ::testing::TestParamInfo<OverlapCase>& info) {
  return info.param.tag;
}

class DedupOverlap : public ::testing::TestWithParam<OverlapCase> {};

TEST_P(DedupOverlap, RestoredStateIsBitIdenticalToNonDedup) {
  const OverlapCase c = GetParam();
  const std::string cache = fresh_cache_dir(c.tag);

  // Ground truth: the test-run process migrated WITHOUT dedup.
  GraphOutcome plain_out;
  RunOptions plain;
  const MigrationReport plain_report =
      run_two_graph(plain, c.stable_nodes, /*vary_seed=*/23, c.vary_nodes, plain_out);
  ASSERT_EQ(plain_report.outcome, MigrationOutcome::Migrated);
  ASSERT_TRUE(plain_out.done);

  // Warm the cache with a migration whose varying graph is differently
  // seeded (vary_seed 41): only the stable prefix will match.
  GraphOutcome warm_out;
  RunOptions warm;
  warm.chunk_cache_dir = cache;
  const MigrationReport warm_report =
      run_two_graph(warm, c.stable_nodes, /*vary_seed=*/41, c.vary_nodes, warm_out);
  ASSERT_EQ(warm_report.outcome, MigrationOutcome::Migrated);
  ASSERT_TRUE(warm_out.done);
  EXPECT_EQ(warm_report.dedup_manifest_chunks,
            warm_report.dedup_hit_chunks + warm_report.dedup_miss_chunks);

  // The dedup'd test run against the warmed cache.
  GraphOutcome dedup_out;
  RunOptions dedup;
  dedup.chunk_cache_dir = cache;
  const MigrationReport dedup_report =
      run_two_graph(dedup, c.stable_nodes, /*vary_seed=*/23, c.vary_nodes, dedup_out);
  ASSERT_EQ(dedup_report.outcome, MigrationOutcome::Migrated);
  ASSERT_TRUE(dedup_out.done);

  // Bit-identical restored state: same workload fingerprint AND the same
  // end-to-end stream digest the destination verified before voting.
  EXPECT_EQ(dedup_out.fingerprint, plain_out.fingerprint);
  EXPECT_EQ(dedup_report.stream_digest, plain_report.stream_digest);
  EXPECT_EQ(dedup_report.stream_bytes, plain_report.stream_bytes)
      << "dedup altered the canonical stream itself";

  // The stable prefix must actually dedup (except in the cold 0% case).
  if (c.stable_nodes > 0) {
    EXPECT_GT(dedup_report.dedup_hit_chunks, 0u) << "shared prefix produced no hits";
  }
  fs::remove_all(cache);
}

INSTANTIATE_TEST_SUITE_P(
    Overlap, DedupOverlap,
    ::testing::Values(OverlapCase{"overlap0", 0, 120},    // cold: nothing shared
                      OverlapCase{"overlap50", 60, 60},   // ~half the stream shared
                      OverlapCase{"overlap98", 246, 4},   // ~98% shared
                      OverlapCase{"overlap100", 120, 0}),  // identical process
    overlap_name);

TEST(Dedup, IdenticalRerunMovesAlmostNothing) {
  // The headline property (README: "the second migration is (almost)
  // free"): re-migrating an identical process moves < 5% of the bytes the
  // first run moved.
  const std::string cache = fresh_cache_dir("rerun");
  GraphOutcome out1;
  RunOptions first;
  first.chunk_cache_dir = cache;
  const MigrationReport r1 = run_two_graph(first, 120, 23, 0, out1);
  ASSERT_EQ(r1.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(r1.dedup_hit_chunks, 0u) << "cold cache cannot hit";

  GraphOutcome out2;
  RunOptions second;
  second.chunk_cache_dir = cache;
  const MigrationReport r2 = run_two_graph(second, 120, 23, 0, out2);
  ASSERT_EQ(r2.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(r2.stream_digest, r1.stream_digest) << "the two processes must be identical";
  EXPECT_EQ(r2.dedup_miss_chunks, 0u) << "an identical stream must be all hits";
  EXPECT_EQ(r2.dedup_hit_chunks, r2.dedup_manifest_chunks);
  ASSERT_GT(r2.stream_bytes, 0u);
  const double ratio = static_cast<double>(r2.dedup_wire_bytes) /
                       static_cast<double>(r2.stream_bytes);
  EXPECT_LT(ratio, 0.05) << "wire " << r2.dedup_wire_bytes << " of " << r2.stream_bytes;
  EXPECT_EQ(out2.fingerprint, out1.fingerprint);

  // The stats surface behind `hpmtool chunk-cache` saw the negotiation.
  const ChunkStore::RunStats stats = ChunkStore::read_run_stats(cache);
  ASSERT_TRUE(stats.valid);
  EXPECT_EQ(stats.manifest_chunks, r2.dedup_manifest_chunks);
  EXPECT_EQ(stats.hits, r2.dedup_hit_chunks);
  EXPECT_EQ(stats.misses, 0u);
  fs::remove_all(cache);
}

TEST(Dedup, CorruptedCacheEntryIsReRequestedAndHealed) {
  // Damage one cached chunk between two identical runs. begin_manifest's
  // digest-verified load must turn it into a miss (re-requested within
  // the same negotiation), the migration must still land bit-identical,
  // and the re-received body must heal the cache.
  const std::string cache = fresh_cache_dir("heal");
  GraphOutcome out1;
  RunOptions first;
  first.chunk_cache_dir = cache;
  const MigrationReport r1 = run_two_graph(first, 120, 23, 0, out1);
  ASSERT_EQ(r1.outcome, MigrationOutcome::Migrated);

  // Flip a byte inside the body of one entry (file size unchanged).
  std::string victim;
  for (const fs::directory_entry& de : fs::directory_iterator(cache)) {
    if (de.path().extension() == ".chunk") {
      victim = de.path().string();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  {
    std::FILE* f = std::fopen(victim.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 16 + 3, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, 16 + 3, SEEK_SET), 0);
    std::fputc(c ^ 0x5A, f);
    std::fclose(f);
  }

  GraphOutcome out2;
  RunOptions second;
  second.chunk_cache_dir = cache;
  const MigrationReport r2 = run_two_graph(second, 120, 23, 0, out2);
  ASSERT_EQ(r2.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(r2.attempts, 1) << "a poisoned entry is a miss, never a failed attempt";
  EXPECT_EQ(r2.dedup_miss_chunks, 1u) << "exactly the damaged chunk re-requested";
  EXPECT_EQ(r2.stream_digest, r1.stream_digest);
  EXPECT_EQ(out2.fingerprint, out1.fingerprint);

  // Healed: a third run is all hits again.
  GraphOutcome out3;
  RunOptions third;
  third.chunk_cache_dir = cache;
  const MigrationReport r3 = run_two_graph(third, 120, 23, 0, out3);
  ASSERT_EQ(r3.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(r3.dedup_miss_chunks, 0u);
  fs::remove_all(cache);
}

TEST(Dedup, WireCodecPreservesBitIdenticalRestore) {
  // VarintDelta negotiated on both sides; cold cache, so every chunk is a
  // coded (or raw-fallback) miss. The restored state must be identical to
  // the raw-wire run's.
  const std::string cache = fresh_cache_dir("codec");
  GraphOutcome plain_out;
  RunOptions plain;
  const MigrationReport plain_report = run_two_graph(plain, 120, 23, 0, plain_out);
  ASSERT_EQ(plain_report.outcome, MigrationOutcome::Migrated);

  GraphOutcome coded_out;
  RunOptions coded;
  coded.chunk_cache_dir = cache;
  coded.wire_codec = WireCodec::VarintDelta;
  const MigrationReport coded_report = run_two_graph(coded, 120, 23, 0, coded_out);
  ASSERT_EQ(coded_report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(coded_out.fingerprint, plain_out.fingerprint);
  EXPECT_EQ(coded_report.stream_digest, plain_report.stream_digest);
  fs::remove_all(cache);
}

TEST(Dedup, LinkFailureMidStreamResumesRaw) {
  // Corrupt the wire mid-transfer in a dedup run: the frame seal turns it
  // into a link failure, the destination stops splice-ahead, and the
  // resume retransmits everything from the watermark raw — the migration
  // still lands bit-identical on attempt 2.
  const std::string cache = fresh_cache_dir("resume");
  GraphOutcome out;
  RunOptions options;
  options.chunk_cache_dir = cache;
  options.io_timeout_seconds = 0.25;
  options.fault_plan.kind = net::FaultKind::Corrupt;
  options.fault_plan.offset = 2000;  // past StateBegin + the manifest head
  options.fault_plan.length = 4;
  options.fault_plan.max_firings = 1;
  const MigrationReport report = run_two_graph(options, 120, 23, 0, out);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 2) << "attempt 1 absorbs the corruption, attempt 2 lands";
  ASSERT_TRUE(out.done);

  GraphOutcome plain_out;
  RunOptions plain;
  const MigrationReport plain_report = run_two_graph(plain, 120, 23, 0, plain_out);
  ASSERT_EQ(plain_report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(out.fingerprint, plain_out.fingerprint);
  EXPECT_EQ(report.stream_digest, plain_report.stream_digest);
  fs::remove_all(cache);
}

/// Forwards to the source's port and records what crosses it: every
/// address the manifest announces and the body of every StateChunk (a
/// dedup'd transfer frames chunks as seq | codec tag | body).
class RecordingPort final : public MessagePort {
 public:
  RecordingPort(std::unique_ptr<MessagePort> inner, std::vector<ChunkAddr>& manifest,
                std::map<std::uint32_t, Bytes>& chunks)
      : inner_(std::move(inner)), manifest_(manifest), chunks_(chunks) {}

  void send(net::MsgType type, std::span<const std::uint8_t> payload) override {
    if (type == net::MsgType::ManifestChunk) {
      for (const net::ManifestEntry& e :
           net::decode_manifest_chunk(Bytes(payload.begin(), payload.end())).entries) {
        manifest_.push_back({e.digest, e.length});
      }
    } else if (type == net::MsgType::StateChunk) {
      EXPECT_EQ(payload[4], 0) << "raw chunks only: no codec was offered";
      chunks_[net::decode_state_chunk_seq(Bytes(payload.begin(), payload.begin() + 4))] =
          Bytes(payload.begin() + 5, payload.end());
    }
    inner_->send(type, payload);
  }
  void send_chunk(std::uint32_t seq, std::span<const std::uint8_t> body,
                  std::uint64_t body_digest) override {
    chunks_[seq] = Bytes(body.begin(), body.end());
    inner_->send_chunk(seq, body, body_digest);
  }
  net::Message recv() override { return inner_->recv(); }
  void set_timeout(std::chrono::milliseconds timeout) override { inner_->set_timeout(timeout); }
  void close() override { inner_->close(); }
  void abort() override { inner_->abort(); }

 private:
  std::unique_ptr<MessagePort> inner_;
  std::vector<ChunkAddr>& manifest_;
  std::map<std::uint32_t, Bytes>& chunks_;
};

TEST(Dedup, ManifestNamesEveryChunkByItsStoreAddress) {
  // The source names chunk i by the digest its collect tap took of it.
  // That must be exactly ChunkStore::address_of(chunk_i), the name put()
  // files a body under (and every store filled before protocol v10 used),
  // or no earlier store could answer a manifest. A cold run misses every
  // chunk, so every chunk crosses the wire next to its announced address.
  const std::string cache = fresh_cache_dir("names");
  GraphOutcome out;
  RunOptions options;
  options.chunk_cache_dir = cache;
  options.register_types = apps::workload_register_types;
  options.program = [&out](MigContext& ctx) { two_graph_program(ctx, 17, 120, 23, 0, &out); };
  options.pipeline = true;
  options.chunk_bytes = 512;
  options.migrate_at_poll = 3;
  std::vector<ChunkAddr> manifest;
  std::map<std::uint32_t, Bytes> chunks;
  const SessionWiring plain = exclusive_wiring(options, 9301);
  SessionWiring wiring = plain;
  wiring.connect = [&] {
    PortPair pair = plain.connect();
    pair.source = std::make_unique<RecordingPort>(std::move(pair.source), manifest, chunks);
    return pair;
  };
  const MigrationReport cold = run_session(options, wiring);
  ASSERT_EQ(cold.outcome, MigrationOutcome::Migrated);
  ASSERT_TRUE(out.done);
  ASSERT_EQ(cold.dedup_miss_chunks, cold.dedup_manifest_chunks);
  ASSERT_EQ(manifest.size(), cold.dedup_manifest_chunks);
  ASSERT_EQ(chunks.size(), manifest.size());
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < manifest.size(); ++i) {
    EXPECT_EQ(manifest[i], ChunkStore::address_of(chunks.at(i))) << "chunk " << i;
    total += chunks.at(i).size();
  }
  EXPECT_EQ(total, cold.stream_bytes);

  // The store those puts filled answers the whole manifest of the next
  // migration of the same process.
  GraphOutcome again;
  RunOptions warm;
  warm.chunk_cache_dir = cache;
  const MigrationReport report = run_two_graph(warm, 120, 23, 0, again);
  ASSERT_EQ(report.outcome, MigrationOutcome::Migrated);
  ASSERT_TRUE(again.done);
  EXPECT_EQ(report.dedup_miss_chunks, 0u);
  EXPECT_EQ(report.dedup_hit_chunks, manifest.size());
  EXPECT_EQ(report.stream_digest, cold.stream_digest);
  fs::remove_all(cache);
}

TEST(Dedup, CheckpointSeededCacheAnswersTheManifest) {
  // Checkpoint rounds and migrations hit the same cache (DESIGN.md §15):
  // seeding a store from a checkpoint's embedded stream — sliced at the
  // same chunk_bytes the migration will announce — makes a later
  // migration of that process an all-hit manifest.
  const std::string cache = fresh_cache_dir("ckptseed");
  const std::string ckpt_path = cache + ".ckpt";
  GraphOutcome ck_out;
  ckpt::checkpoint_run(
      apps::workload_register_types,
      [&ck_out](MigContext& ctx) { two_graph_program(ctx, 17, 120, 23, 0, &ck_out); },
      ckpt_path, /*at_poll=*/3);
  ASSERT_TRUE(ck_out.done);
  const std::size_t seeded = ckpt::seed_chunk_cache(ckpt_path, cache, /*chunk_bytes=*/512);
  ASSERT_GT(seeded, 0u);

  GraphOutcome out;
  RunOptions options;
  options.chunk_cache_dir = cache;
  const MigrationReport report = run_two_graph(options, 120, 23, 0, out);
  ASSERT_EQ(report.outcome, MigrationOutcome::Migrated);
  ASSERT_TRUE(out.done);
  EXPECT_EQ(out.fingerprint, ck_out.fingerprint);
  EXPECT_EQ(report.dedup_miss_chunks, 0u) << "checkpointed chunks must answer the manifest";
  EXPECT_EQ(report.dedup_hit_chunks, report.dedup_manifest_chunks);
  fs::remove_all(cache);
  fs::remove(ckpt_path);
}

}  // namespace
}  // namespace hpm::mig
