// RetainedStream: the immutable replay source behind resume and failover.
// It must serve the bytes it was set with for every read shape the senders
// use (chunk-at-a-time, resume tails), name each chunk by the digest it was
// handed, fail loudly past the last chunk, and hand the stream over
// without a copy for local completion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "mig/retained_stream.hpp"

namespace hpm::mig {
namespace {

Bytes pattern_stream(std::size_t n) {
  Bytes b(n);
  // Position-dependent, non-repeating within a 256*251 window, so a read
  // served from the wrong offset can never match.
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + i / 251) & 0xFF);
  }
  return b;
}

/// The StreamDigest of each `chunk`-byte slice of `stream`, as the collect
/// tap hands them over.
std::vector<std::uint64_t> chunk_digests(const Bytes& stream, std::size_t chunk) {
  std::vector<std::uint64_t> out;
  for (std::size_t off = 0; off < stream.size(); off += chunk) {
    out.push_back(StreamDigest::of(
        std::span(stream).subspan(off, std::min(chunk, stream.size() - off))));
  }
  return out;
}

TEST(RetainedStream, ServesEveryReadShape) {
  const Bytes stream = pattern_stream(10'000);
  constexpr std::size_t kChunk = 512;
  const std::vector<std::uint64_t> digests = chunk_digests(stream, kChunk);
  RetainedStream r;
  r.set(Bytes(stream), digests);
  EXPECT_EQ(r.size(), stream.size());

  // Chunk-at-a-time, including the short tail (the sender's loop), each
  // with the digest it was set with.
  for (std::size_t off = 0; off < stream.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, stream.size() - off);
    const std::span<const std::uint8_t> chunk = r.bytes().subspan(off, n);
    EXPECT_EQ(0, std::memcmp(chunk.data(), stream.data() + off, n)) << "offset " << off;
    EXPECT_EQ(r.chunk_digest(off / kChunk), digests[off / kChunk]) << "offset " << off;
  }

  // A resume tail from an unaligned watermark.
  const std::span<const std::uint8_t> tail = r.bytes().subspan(777);
  EXPECT_EQ(0, std::memcmp(tail.data(), stream.data() + 777, tail.size()));
}

TEST(RetainedStream, ADigestPastTheLastChunkFailsLoudly) {
  const Bytes stream = pattern_stream(1000);
  RetainedStream r;
  r.set(Bytes(stream), chunk_digests(stream, 512));
  EXPECT_NO_THROW((void)r.chunk_digest(1));
  EXPECT_THROW((void)r.chunk_digest(2), MigrationError);
  EXPECT_THROW((void)r.chunk_digest(1'000'000), MigrationError);
}

TEST(RetainedStream, TakeHandsOverTheBufferWithoutACopy) {
  const Bytes stream = pattern_stream(4096);
  Bytes owned(stream);
  const std::uint8_t* buffer = owned.data();
  RetainedStream r;
  r.set(std::move(owned), chunk_digests(stream, 512));
  const Bytes taken = r.take();
  EXPECT_EQ(taken, stream);
  EXPECT_EQ(taken.data(), buffer) << "local completion must restore from the retained buffer";
  EXPECT_EQ(r.size(), 0u);

  RetainedStream empty;
  EXPECT_TRUE(empty.take().empty());
}

}  // namespace
}  // namespace hpm::mig
