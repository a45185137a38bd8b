// ChunkAssembler under attack: a hostile or buggy peer sending duplicate
// or out-of-order sequence numbers, chunks after the end of stream, or a
// StateEnd whose totals contradict what actually arrived. Every violation
// must surface as the typed hpm::ProtocolError (producer side) and poison
// the assembler so the consumer fails instead of decoding garbage.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "mig/chunk_assembler.hpp"

namespace hpm::mig {
namespace {

Bytes bytes_of(std::initializer_list<std::uint8_t> init) { return Bytes(init); }

/// Append a chunk with its own digest, as the rx thread hands it over.
void append(ChunkAssembler& a, std::uint32_t seq, std::span<const std::uint8_t> bytes) {
  a.append(seq, Bytes(bytes.begin(), bytes.end()), 0, StreamDigest::of(bytes));
}

/// Every segment the complete stream holds, joined.
Bytes joined(ChunkAssembler& a) {
  Bytes out;
  std::span<const std::uint8_t> segment;
  for (std::size_t i = 0; a.segment(i, segment); ++i) {
    out.insert(out.end(), segment.begin(), segment.end());
  }
  return out;
}

net::StateEndInfo end_info(std::uint32_t chunks, std::uint64_t total,
                           std::uint64_t digest = 0) {
  net::StateEndInfo info;
  info.chunk_count = chunks;
  info.total_bytes = total;
  info.digest = digest;
  return info;
}

TEST(ChunkAssembler, OrderedChunksRoundTrip) {
  ChunkAssembler a;
  append(a, 0, bytes_of({1, 2, 3}));
  append(a, 1, bytes_of({4, 5}));
  a.finish(end_info(2, 5, 0x1234));
  EXPECT_EQ(a.await_complete(), 5u);
  EXPECT_EQ(a.chunks_received(), 2u);
  EXPECT_EQ(a.end_info().digest, 0x1234u);

  EXPECT_EQ(joined(a), bytes_of({1, 2, 3, 4, 5}));
  std::span<const std::uint8_t> segment;
  EXPECT_FALSE(a.segment(2, segment)) << "stream complete and exhausted";
}

TEST(ChunkAssembler, DuplicateSequenceIsAProtocolError) {
  ChunkAssembler a;
  append(a, 0, bytes_of({1}));
  EXPECT_THROW(append(a, 0, bytes_of({1})), ProtocolError);
  // Poisoned: the consumer sees the failure, not a partial stream.
  std::span<const std::uint8_t> segment;
  EXPECT_THROW(a.segment(0, segment), NetError);
}

TEST(ChunkAssembler, SequenceGapIsAProtocolError) {
  ChunkAssembler a;
  append(a, 0, bytes_of({1}));
  EXPECT_THROW(append(a, 2, bytes_of({2})), ProtocolError);
  EXPECT_THROW(a.await_complete(), NetError);
}

TEST(ChunkAssembler, OutOfOrderFirstChunkIsAProtocolError) {
  ChunkAssembler a;
  EXPECT_THROW(append(a, 3, bytes_of({1})), ProtocolError);
}

TEST(ChunkAssembler, ChunkAfterStateEndIsAProtocolError) {
  ChunkAssembler a;
  append(a, 0, bytes_of({1}));
  a.finish(end_info(1, 1));
  EXPECT_THROW(append(a, 1, bytes_of({2})), ProtocolError);
}

TEST(ChunkAssembler, SecondStateEndIsAProtocolError) {
  ChunkAssembler a;
  append(a, 0, bytes_of({1}));
  a.finish(end_info(1, 1));
  EXPECT_THROW(a.finish(end_info(1, 1)), ProtocolError);
}

TEST(ChunkAssembler, HostileChunkCountPoisons) {
  // StateEnd claims more chunks than arrived: the stream must not be
  // treated as complete.
  ChunkAssembler a;
  append(a, 0, bytes_of({1, 2}));
  a.finish(end_info(7, 2));
  EXPECT_THROW(a.await_complete(), NetError);
}

TEST(ChunkAssembler, HostileByteTotalPoisons) {
  ChunkAssembler a;
  append(a, 0, bytes_of({1, 2}));
  a.finish(end_info(1, 9999));
  std::span<const std::uint8_t> segment;
  EXPECT_THROW(a.segment(0, segment), NetError);
}

TEST(ChunkAssembler, ASegmentOnceAppendedNeverMoves) {
  // The restorer decodes in place from a segment while the rx thread keeps
  // appending, so a segment's bytes must stay where they arrived: the
  // payload buffer itself (kept by move, behind its seq), at the same
  // address after hundreds of later appends.
  constexpr std::uint32_t kChunk = 64;
  constexpr std::uint32_t kChunks = 256;
  ChunkAssembler a(kChunk);
  std::vector<const std::uint8_t*> arrived;
  std::uint64_t total = 0;
  for (std::uint32_t seq = 0; seq < kChunks; ++seq) {
    Bytes payload(4 + kChunk);
    for (std::uint32_t i = 0; i < kChunk; ++i) {
      payload[4 + i] = static_cast<std::uint8_t>(seq + i);
    }
    arrived.push_back(payload.data() + 4);
    const std::uint64_t digest = StreamDigest::of(std::span(payload).subspan(4));
    a.append(seq, std::move(payload), 4, digest);
    total += kChunk;
    std::span<const std::uint8_t> first;
    ASSERT_TRUE(a.segment(0, first));
    ASSERT_EQ(first.data(), arrived[0]) << "after " << seq + 1 << " appends";
  }
  a.finish(end_info(kChunks, total));
  EXPECT_EQ(a.await_complete(), total);
  for (std::uint32_t seq = 0; seq < kChunks; ++seq) {
    std::span<const std::uint8_t> segment;
    ASSERT_TRUE(a.segment(seq, segment));
    ASSERT_EQ(segment.data(), arrived[seq]) << "segment " << seq << " moved";
    ASSERT_EQ(segment.size(), kChunk);
    for (std::uint32_t i = 0; i < kChunk; ++i) {
      ASSERT_EQ(segment[i], static_cast<std::uint8_t>(seq + i));
    }
  }
}

TEST(ChunkAssembler, EveryChunkKeepsTheAddressItArrivedWith) {
  // The restorer builds the stream root from these: a wire chunk keeps
  // the digest its producer took, a spliced hit its verified address.
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("hpm_assembler_addrs_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  ChunkStore store(dir);
  store.open();
  const Bytes hit = bytes_of({9, 8, 7});
  const ChunkAddr hit_addr = store.put(hit);
  const Bytes miss = bytes_of({1, 2});
  const ChunkAddr miss_addr = ChunkStore::address_of(miss);

  ChunkAssembler a(3);
  const std::vector<std::uint32_t> misses = a.begin_manifest({miss_addr, hit_addr}, store);
  ASSERT_EQ(misses, std::vector<std::uint32_t>{0});
  EXPECT_TRUE(a.chunk_addrs().empty()) << "the hit waits for the miss before it";
  a.append(0, miss, 0, 0x5EED);  // the producer's digest is taken as given
  const std::vector<ChunkAddr> addrs = a.chunk_addrs();
  ASSERT_EQ(addrs.size(), 2u);
  EXPECT_EQ(addrs[0], (ChunkAddr{0x5EED, 2}));
  EXPECT_EQ(addrs[1], hit_addr);
  std::filesystem::remove_all(dir);
}

TEST(ChunkAssembler, FailUnblocksAWaitingConsumer) {
  ChunkAssembler a;
  std::thread consumer([&] {
    std::span<const std::uint8_t> segment;
    EXPECT_THROW(a.segment(0, segment), NetError);  // blocks until poisoned
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  a.fail("link died");
  consumer.join();
}

TEST(ChunkAssembler, AppendAfterFailIsSilent) {
  // The rx loop may race one more frame in after a failure; it must not
  // throw from the already-poisoned assembler.
  ChunkAssembler a;
  a.fail("poisoned first");
  append(a, 0, bytes_of({1}));  // no throw
  EXPECT_THROW(a.await_complete(), NetError);
}

}  // namespace
}  // namespace hpm::mig
