// Unit tests of the content-addressed chunk store (DESIGN.md §15):
// address stability, the header + digest verification that turns damaged
// or poisoned entries into plain misses, torn-entry tolerance at open(), LRU
// eviction to the byte budget, and the last-run stats surface behind
// `hpmtool chunk-cache`.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>

#include "common/digest.hpp"
#include "mig/chunk_store.hpp"

namespace hpm::mig {
namespace {

namespace fs = std::filesystem;

class ChunkStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("hpm_chunk_store_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static Bytes body_of(std::uint64_t seed, std::size_t n) {
    std::mt19937_64 rng(seed);
    Bytes b(n);
    for (std::uint8_t& x : b) x = static_cast<std::uint8_t>(rng());
    return b;
  }

  std::string dir_;
};

TEST_F(ChunkStoreTest, AddressIsStableAndLengthQualified) {
  const Bytes a = body_of(1, 100);
  EXPECT_EQ(ChunkStore::address_of(a), ChunkStore::address_of(a));
  EXPECT_EQ(ChunkStore::address_of(a).digest, StreamDigest::of(a));
  EXPECT_EQ(ChunkStore::address_of(a).length, 100u);
  const Bytes b = body_of(2, 100);
  EXPECT_NE(ChunkStore::address_of(a), ChunkStore::address_of(b));
}

TEST_F(ChunkStoreTest, PutLoadRoundTrip) {
  ChunkStore store(dir_);
  store.open();
  const Bytes body = body_of(7, 777);
  const ChunkAddr addr = ChunkStore::address_of(body);
  EXPECT_FALSE(store.contains(addr));
  store.put(body);
  EXPECT_TRUE(store.contains(addr));
  EXPECT_EQ(store.entries(), 1u);
  Bytes out;
  ASSERT_TRUE(store.load(addr, out));
  EXPECT_EQ(out, body);
  // A second put of the same body is an LRU touch, not a new entry.
  store.put(body);
  EXPECT_EQ(store.entries(), 1u);
}

// Every golden entry below carries this 40-byte body at this offset.
constexpr std::size_t kGoldenBodyAt = 16;
constexpr std::size_t kGoldenBodyLen = 40;

// One entry exactly as the store writes it: 'HPMC' | digest
// ca63de59188f1981 | length 40 | the 40-byte body, in the file its address
// names. Caches on disk outlive the code that wrote them, so this must load
// and re-put byte for byte under the same name.
constexpr char kGoldenName[] = "ca63de59188f1981-40.chunk";
constexpr std::uint8_t kGoldenEntry[] = {
    0x48, 0x50, 0x4d, 0x43, 0xca, 0x63, 0xde, 0x59, 0x18, 0x8f, 0x19, 0x81,
    0x00, 0x00, 0x00, 0x28, 0x75, 0xcd, 0x25, 0x4b, 0x84, 0xe2, 0xea, 0xf2,
    0xa6, 0x81, 0x20, 0x67, 0x43, 0x34, 0xb2, 0x6e, 0x4b, 0xe2, 0x99, 0x54,
    0x73, 0x76, 0x7f, 0xf1, 0xcc, 0x75, 0x99, 0x8d, 0x1e, 0xab, 0xce, 0xdb,
    0x97, 0x39, 0x65, 0x6e, 0xca, 0x98, 0xc3, 0x71,
};

// The same entry as the store wrote it before the record lost its seal:
// the same bytes plus a CRC-32 trailer b8 ce 2d 8e (20 bytes of overhead).
constexpr std::uint8_t kCrcEraEntry[] = {
    0x48, 0x50, 0x4d, 0x43, 0xca, 0x63, 0xde, 0x59, 0x18, 0x8f, 0x19, 0x81,
    0x00, 0x00, 0x00, 0x28, 0x75, 0xcd, 0x25, 0x4b, 0x84, 0xe2, 0xea, 0xf2,
    0xa6, 0x81, 0x20, 0x67, 0x43, 0x34, 0xb2, 0x6e, 0x4b, 0xe2, 0x99, 0x54,
    0x73, 0x76, 0x7f, 0xf1, 0xcc, 0x75, 0x99, 0x8d, 0x1e, 0xab, 0xce, 0xdb,
    0x97, 0x39, 0x65, 0x6e, 0xca, 0x98, 0xc3, 0x71, 0xb8, 0xce, 0x2d, 0x8e,
};

// The same body as the store wrote it under the FNV-1a digest (protocol
// v5): the CRC-era layout, named by the retired address 120458c4aad92685.
constexpr char kFnvEraName[] = "120458c4aad92685-40.chunk";
constexpr std::uint8_t kFnvEraEntry[] = {
    0x48, 0x50, 0x4d, 0x43, 0x12, 0x04, 0x58, 0xc4, 0xaa, 0xd9, 0x26, 0x85,
    0x00, 0x00, 0x00, 0x28, 0x75, 0xcd, 0x25, 0x4b, 0x84, 0xe2, 0xea, 0xf2,
    0xa6, 0x81, 0x20, 0x67, 0x43, 0x34, 0xb2, 0x6e, 0x4b, 0xe2, 0x99, 0x54,
    0x73, 0x76, 0x7f, 0xf1, 0xcc, 0x75, 0x99, 0x8d, 0x1e, 0xab, 0xce, 0xdb,
    0x97, 0x39, 0x65, 0x6e, 0xca, 0x98, 0xc3, 0x71, 0xaa, 0x5c, 0xa9, 0x0e,
};
constexpr ChunkAddr kFnvEraAddr{0x120458c4aad92685ull, kGoldenBodyLen};

template <std::size_t N>
void write_entry(const std::string& path, const std::uint8_t (&entry)[N]) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(entry, 1, N, f), N);
  std::fclose(f);
}

Bytes golden_body() {
  return Bytes(kGoldenEntry + kGoldenBodyAt, kGoldenEntry + kGoldenBodyAt + kGoldenBodyLen);
}

/// "<16-hex digest>-<length>.chunk": the file an address names.
std::string entry_name(const ChunkAddr& addr) {
  char name[64];
  std::snprintf(name, sizeof(name), "%016llx-%lu.chunk",
                static_cast<unsigned long long>(addr.digest),
                static_cast<unsigned long>(addr.length));
  return name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    bytes.push_back(static_cast<std::uint8_t>(c));
  }
  std::fclose(f);
  return bytes;
}

TEST_F(ChunkStoreTest, GoldenEntryLoadsAndReputsByteForByte) {
  const std::vector<std::uint8_t> entry(std::begin(kGoldenEntry), std::end(kGoldenEntry));
  const Bytes body = golden_body();
  const ChunkAddr addr{0xca63de59188f1981ull, kGoldenBodyLen};
  EXPECT_EQ(ChunkStore::address_of(body), addr);

  fs::create_directories(dir_);
  write_entry(dir_ + "/" + kGoldenName, kGoldenEntry);
  {
    ChunkStore store(dir_);
    store.open();
    ASSERT_TRUE(store.contains(addr));
    Bytes out;
    ASSERT_TRUE(store.load(addr, out)) << "a pre-existing entry must stay a hit";
    EXPECT_EQ(out, body);
  }

  const std::string fresh = dir_ + "/fresh";
  ChunkStore store(fresh);
  store.open();
  store.put(body);
  EXPECT_EQ(read_file(fresh + "/" + kGoldenName), entry)
      << "re-put must land under the same address";
}

TEST_F(ChunkStoreTest, CrcEraEntriesAreDroppedAtOpen) {
  // Both CRC-era entries are four bytes longer than their names' lengths
  // allow: open() unlinks them as torn, so neither is ever served, and the
  // body re-puts as the current golden entry.
  fs::create_directories(dir_);
  write_entry(dir_ + "/" + kGoldenName, kCrcEraEntry);
  write_entry(dir_ + "/" + kFnvEraName, kFnvEraEntry);
  const Bytes body = golden_body();
  const ChunkAddr addr = ChunkStore::address_of(body);

  ChunkStore store(dir_);
  store.open();
  EXPECT_EQ(store.entries(), 0u);
  EXPECT_FALSE(fs::exists(dir_ + "/" + kGoldenName));
  EXPECT_FALSE(fs::exists(dir_ + "/" + kFnvEraName));
  Bytes out;
  EXPECT_FALSE(store.load(addr, out));
  EXPECT_FALSE(store.contains(kFnvEraAddr));

  store.put(body);
  EXPECT_EQ(read_file(dir_ + "/" + kGoldenName),
            std::vector<std::uint8_t>(std::begin(kGoldenEntry), std::end(kGoldenEntry)));
  ASSERT_TRUE(store.load(addr, out));
  EXPECT_EQ(out, body);
}

TEST_F(ChunkStoreTest, EveryByteFlipAndSizeChangeIsAMissAndUnlinked) {
  // Every byte of a small record is checked: magic, digest and length
  // against the address asked for, the body against its digest. Damage
  // after open() indexed the entry must make load() miss and unlink it.
  constexpr std::uint64_t kSeed = 20231;
  SCOPED_TRACE("seed " + std::to_string(kSeed));
  const Bytes body = body_of(kSeed, 24);
  const ChunkAddr addr = ChunkStore::address_of(body);
  ChunkStore store(dir_);
  store.open();
  store.put(body);
  const std::string file = dir_ + "/" + entry_name(addr);
  const std::vector<std::uint8_t> record = read_file(file);
  ASSERT_EQ(record.size(), 16 + body.size());

  auto expect_miss = [&](const std::vector<std::uint8_t>& damaged, const std::string& what) {
    store.put(body);  // re-create the entry the previous case unlinked
    std::FILE* f = std::fopen(file.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(damaged.data(), 1, damaged.size(), f), damaged.size());
    std::fclose(f);
    Bytes out;
    EXPECT_FALSE(store.load(addr, out)) << what;
    EXPECT_FALSE(store.contains(addr)) << what;
    EXPECT_FALSE(fs::exists(file)) << what;
  };
  for (std::size_t at = 0; at < record.size(); ++at) {
    std::vector<std::uint8_t> damaged = record;
    damaged[at] ^= 0xFFu;
    expect_miss(damaged, "byte " + std::to_string(at) + " flipped");
  }
  expect_miss({record.begin(), record.end() - 1}, "truncated by one byte");
  std::vector<std::uint8_t> grown = record;
  grown.push_back(0);
  expect_miss(grown, "grown by one byte");

  // The intact record still loads.
  store.put(body);
  Bytes out;
  ASSERT_TRUE(store.load(addr, out));
  EXPECT_EQ(out, body);
}

TEST_F(ChunkStoreTest, SurvivesReopen) {
  {
    ChunkStore store(dir_);
    store.open();
    store.put(body_of(1, 64));
    store.put(body_of(2, 256));
    store.sync_dir();
  }
  ChunkStore reopened(dir_);
  reopened.open();
  EXPECT_EQ(reopened.entries(), 2u);
  Bytes out;
  EXPECT_TRUE(reopened.load(ChunkStore::address_of(body_of(1, 64)), out));
  EXPECT_EQ(out, body_of(1, 64));
}

TEST_F(ChunkStoreTest, TornEntryIsDroppedAtOpen) {
  const Bytes body = body_of(3, 512);
  const ChunkAddr addr = ChunkStore::address_of(body);
  {
    ChunkStore store(dir_);
    store.open();
    store.put(body);
  }
  // Truncate the entry file mid-body: a crashed run's torn write.
  std::string victim;
  for (const fs::directory_entry& de : fs::directory_iterator(dir_)) {
    if (de.path().extension() == ".chunk") victim = de.path().string();
  }
  ASSERT_FALSE(victim.empty());
  fs::resize_file(victim, 100);
  ChunkStore reopened(dir_);
  reopened.open();
  EXPECT_EQ(reopened.entries(), 0u);
  EXPECT_FALSE(fs::exists(victim)) << "torn entry must be unlinked, not kept";
  EXPECT_FALSE(reopened.contains(addr));
}

TEST_F(ChunkStoreTest, CorruptedBodyIsAMissAndUnlinked) {
  const Bytes body = body_of(4, 512);
  const ChunkAddr addr = ChunkStore::address_of(body);
  ChunkStore store(dir_);
  store.open();
  store.put(body);
  // Flip one body byte (size unchanged, so open()-style checks pass; only
  // load()'s digest verification can catch it).
  std::string victim;
  for (const fs::directory_entry& de : fs::directory_iterator(dir_)) {
    if (de.path().extension() == ".chunk") victim = de.path().string();
  }
  ASSERT_FALSE(victim.empty());
  {
    std::FILE* f = std::fopen(victim.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 16 + 40, SEEK_SET), 0);  // header + 40 into the body
    const int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, 16 + 40, SEEK_SET), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  Bytes out;
  EXPECT_FALSE(store.load(addr, out)) << "damage must degrade to a miss";
  EXPECT_FALSE(store.contains(addr));
  EXPECT_FALSE(fs::exists(victim));
  // The miss is re-fillable: a fresh put restores service.
  store.put(body);
  EXPECT_TRUE(store.load(addr, out));
  EXPECT_EQ(out, body);
}

TEST_F(ChunkStoreTest, PoisonedEntryWithForgedHeaderStillMisses) {
  // Forge an entry whose name and header are fully self-consistent — the
  // claimed address in both, the right size on disk — but whose BODY does
  // not hash to that address: a
  // deliberately poisoned cache. Only load()'s digest recomputation can
  // catch this, and it must turn the entry into a miss.
  const Bytes real = body_of(5, 128);
  const ChunkAddr addr = ChunkStore::address_of(real);
  const Bytes lie = body_of(6, 128);
  fs::create_directories(dir_);
  {
    Bytes record(16 + lie.size());
    record[0] = 0x48;  // 'H'  (kEntryMagic, big-endian)
    record[1] = 0x50;  // 'P'
    record[2] = 0x4D;  // 'M'
    record[3] = 0x43;  // 'C'
    for (int i = 0; i < 8; ++i) {
      record[4 + i] = static_cast<std::uint8_t>(addr.digest >> (8 * (7 - i)));
    }
    for (int i = 0; i < 4; ++i) {
      record[12 + i] = static_cast<std::uint8_t>(addr.length >> (8 * (3 - i)));
    }
    std::copy(lie.begin(), lie.end(), record.begin() + 16);
    std::FILE* f = std::fopen((dir_ + "/" + entry_name(addr)).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(record.data(), 1, record.size(), f), record.size());
    std::fclose(f);
  }
  ChunkStore store(dir_);
  store.open();
  EXPECT_TRUE(store.contains(addr)) << "the forgery is indexed until load proves it wrong";
  Bytes out;
  EXPECT_FALSE(store.load(addr, out));
  EXPECT_FALSE(store.contains(addr));
}

TEST_F(ChunkStoreTest, EvictsLeastRecentlyUsedToBudget) {
  // Each entry is 100 body bytes + 16 overhead = 116 on disk. A 400-byte
  // budget holds three entries.
  ChunkStore store(dir_, 400);
  store.open();
  store.put(body_of(10, 100));
  store.put(body_of(11, 100));
  store.put(body_of(12, 100));
  EXPECT_EQ(store.entries(), 3u);
  // Touch the oldest so it is MRU, then overflow: the eviction must take
  // entry 11 (now least recent), not 10.
  Bytes out;
  ASSERT_TRUE(store.load(ChunkStore::address_of(body_of(10, 100)), out));
  store.put(body_of(13, 100));
  EXPECT_EQ(store.entries(), 3u);
  EXPECT_LE(store.bytes(), 400u);
  EXPECT_TRUE(store.contains(ChunkStore::address_of(body_of(10, 100))));
  EXPECT_FALSE(store.contains(ChunkStore::address_of(body_of(11, 100))));
  EXPECT_TRUE(store.contains(ChunkStore::address_of(body_of(13, 100))));
}

TEST_F(ChunkStoreTest, GcShrinksToBudget) {
  ChunkStore store(dir_);
  store.open();
  for (std::uint64_t s = 0; s < 8; ++s) store.put(body_of(s, 100));
  EXPECT_EQ(store.entries(), 8u);
  const std::size_t evicted = store.gc(3 * 116);
  EXPECT_EQ(evicted, 5u);
  EXPECT_EQ(store.entries(), 3u);
  EXPECT_LE(store.bytes(), 3u * 116u);
  // gc(0) may empty the store entirely (unlike put's keep-one eviction).
  EXPECT_EQ(store.gc(0), 3u);
  EXPECT_EQ(store.entries(), 0u);
}

TEST_F(ChunkStoreTest, RunStatsRoundTripAndToleratesDamage) {
  ChunkStore store(dir_);
  store.open();
  EXPECT_FALSE(ChunkStore::read_run_stats(dir_).valid);
  store.note_run(100, 98, 2);
  const ChunkStore::RunStats stats = ChunkStore::read_run_stats(dir_);
  ASSERT_TRUE(stats.valid);
  EXPECT_EQ(stats.manifest_chunks, 100u);
  EXPECT_EQ(stats.hits, 98u);
  EXPECT_EQ(stats.misses, 2u);
  // A damaged stats file is invalid, never an exception.
  std::FILE* f = std::fopen((dir_ + "/last-run.stats").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not-a-stats-file", f);
  std::fclose(f);
  EXPECT_FALSE(ChunkStore::read_run_stats(dir_).valid);
}

TEST_F(ChunkStoreTest, DirectoryLockExcludesASecondProcess) {
  // Two PROCESSES sharing one store directory (a warm standby and its
  // host's own migrations) must serialize their scans and GC sweeps on
  // the advisory flock of <dir>/.lock. Holding the lock here and fork()ing
  // a child that open()s the same store proves the child actually blocks
  // on the kernel lock — a thread mutex cannot provide that.
  {
    ChunkStore store(dir_);
    store.open();
    store.put(body_of(1, 512));
    store.put(body_of(2, 512));
    store.sync_dir();
  }
  const int lock_fd = ::open((dir_ + "/.lock").c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(lock_fd, 0);
  ASSERT_EQ(::flock(lock_fd, LOCK_EX), 0);

  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: the open() scan and the gc() sweep both take the directory
    // lock, so this blocks until the parent releases it. No gtest in the
    // child — it reports through the pipe + exit status only.
    ::close(pipe_fds[0]);
    ChunkStore peer(dir_);
    peer.open();
    peer.gc(1ull << 20);
    const char ok = peer.entries() == 2 ? '1' : '0';
    (void)!::write(pipe_fds[1], &ok, 1);
    ::_exit(0);
  }
  ::close(pipe_fds[1]);

  // While the lock is held the child must NOT complete its open().
  struct pollfd pfd{pipe_fds[0], POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 300), 0)
      << "the child finished open()/gc() while the directory lock was held";

  ASSERT_EQ(::flock(lock_fd, LOCK_UN), 0);
  // Released: the child acquires the lock, finishes, and reports.
  ASSERT_EQ(::poll(&pfd, 1, 10'000), 1) << "child never finished after unlock";
  char verdict = '?';
  ASSERT_EQ(::read(pipe_fds[0], &verdict, 1), 1);
  EXPECT_EQ(verdict, '1') << "child saw a wrong entry count through the lock";
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ::close(pipe_fds[0]);
  ::close(lock_fd);

  // Both processes' views stay coherent: everything still loads.
  ChunkStore after(dir_);
  after.open();
  EXPECT_EQ(after.entries(), 2u);
  Bytes out;
  EXPECT_TRUE(after.load(ChunkStore::address_of(body_of(1, 512)), out));
  EXPECT_EQ(out, body_of(1, 512));
}

TEST_F(ChunkStoreTest, ForeignFilesAreIgnoredAtOpen) {
  fs::create_directories(dir_);
  std::FILE* f = std::fopen((dir_ + "/README.txt").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("hello", f);
  std::fclose(f);
  ChunkStore store(dir_);
  store.open();
  EXPECT_EQ(store.entries(), 0u);
  EXPECT_TRUE(fs::exists(dir_ + "/README.txt")) << "only .chunk entries are managed";
}

}  // namespace
}  // namespace hpm::mig
