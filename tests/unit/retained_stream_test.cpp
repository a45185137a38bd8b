// RetainedStream: the immutable replay source behind resume and failover.
// Memory mode and spilled mode must serve bit-identical bytes for every
// read shape the senders use (whole-stream materialize, chunk-at-a-time,
// resume tails), out-of-range reads must fail loudly, and release() must
// unlink the spill file — a terminal transaction leaves nothing behind.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
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

std::string temp_spill_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("hpm_retained_" + std::string(tag) + "_" + std::to_string(::getpid()) +
           ".stream"))
      .string();
}

TEST(RetainedStream, MemoryModeServesEveryReadShape) {
  const Bytes stream = pattern_stream(10'000);
  constexpr std::size_t kChunk = 512;
  const std::vector<std::uint64_t> digests = chunk_digests(stream, kChunk);
  RetainedStream r;
  r.set(Bytes(stream), digests);
  EXPECT_EQ(r.size(), stream.size());
  EXPECT_FALSE(r.empty());
  EXPECT_FALSE(r.spilled());

  EXPECT_EQ(r.materialize(), stream);

  // Chunk-at-a-time, including the short tail (the sender's loop), each
  // with the digest it was set with.
  for (std::size_t off = 0; off < stream.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, stream.size() - off);
    Bytes out(n);
    r.read(off, out);
    EXPECT_EQ(0, std::memcmp(out.data(), stream.data() + off, n)) << "offset " << off;
    EXPECT_EQ(r.chunk_digest(off / kChunk), digests[off / kChunk]) << "offset " << off;
  }
  EXPECT_THROW((void)r.chunk_digest(digests.size()), MigrationError);

  // A resume tail from an unaligned watermark.
  Bytes tail(stream.size() - 777);
  r.read(777, tail);
  EXPECT_EQ(0, std::memcmp(tail.data(), stream.data() + 777, tail.size()));
}

TEST(RetainedStream, SpillPreservesBytesAndFreesNothingVisible) {
  const Bytes stream = pattern_stream(65'536 + 37);  // unaligned size
  constexpr std::size_t kChunk = 4096;
  const std::vector<std::uint64_t> digests = chunk_digests(stream, kChunk);
  const std::string path = temp_spill_path("roundtrip");
  RetainedStream r;
  r.set(Bytes(stream), digests);
  r.spill(path);
  EXPECT_TRUE(r.spilled());
  EXPECT_EQ(r.spill_path(), path);
  EXPECT_EQ(r.size(), stream.size());
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(std::filesystem::file_size(path), stream.size());

  // Every read shape again, now served by pread; the digests stay in
  // memory for the replay's seals.
  EXPECT_EQ(r.materialize(), stream);
  for (std::size_t off = 0; off < stream.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, stream.size() - off);
    Bytes out(n);
    r.read(off, out);
    EXPECT_EQ(0, std::memcmp(out.data(), stream.data() + off, n)) << "offset " << off;
    EXPECT_EQ(r.chunk_digest(off / kChunk), digests[off / kChunk]) << "offset " << off;
  }
  Bytes tail(stream.size() - 12'345);
  r.read(12'345, tail);
  EXPECT_EQ(0, std::memcmp(tail.data(), stream.data() + 12'345, tail.size()));

  // Spilling again is a no-op, not a rewrite.
  r.spill(path);
  EXPECT_EQ(r.materialize(), stream);

  r.release();
  EXPECT_FALSE(std::filesystem::exists(path))
      << "release() must unlink the spill file";
}

TEST(RetainedStream, OutOfRangeReadsFailLoudly) {
  const Bytes stream = pattern_stream(1000);
  RetainedStream r;
  r.set(Bytes(stream), chunk_digests(stream, 512));
  Bytes out(8);
  EXPECT_THROW(r.read(1000 - 4, out), MigrationError);  // tail overrun
  EXPECT_THROW(r.read(1'000'000, out), MigrationError);  // far past the end

  const std::string path = temp_spill_path("range");
  r.spill(path);
  EXPECT_THROW(r.read(1000 - 4, out), MigrationError);
  EXPECT_THROW(r.read(1'000'000, out), MigrationError);
  r.release();
}

TEST(RetainedStream, ATruncatedSpillFileFailsTheReadNotTheRestore) {
  const Bytes stream = pattern_stream(8192);
  const std::string path = temp_spill_path("truncated");
  RetainedStream r;
  r.set(Bytes(stream), chunk_digests(stream, 512));
  r.spill(path);
  // Simulate on-disk damage: the replay source lost its tail. A read into
  // the missing region must throw, never hand back short or stale bytes.
  std::filesystem::resize_file(path, 4096);
  Bytes out(1024);
  r.read(0, out);  // intact prefix still serves
  EXPECT_EQ(0, std::memcmp(out.data(), stream.data(), out.size()));
  Bytes tail(1024);
  EXPECT_THROW(r.read(8192 - 1024, tail), MigrationError);
  r.release();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(RetainedStream, ReleaseIsIdempotentAndEmptyStreamsAreNoops) {
  RetainedStream r;
  EXPECT_TRUE(r.empty());
  r.spill(temp_spill_path("empty"));  // no-op on an empty stream
  EXPECT_FALSE(r.spilled());
  r.release();
  r.release();

  const Bytes small = pattern_stream(64);
  RetainedStream m;
  m.set(Bytes(small), chunk_digests(small, 512));
  const std::string path = temp_spill_path("idem");
  m.spill(path);
  m.release();
  m.release();  // must be safe after the file is already gone
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace hpm::mig
