#include "mig/chunk_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/digest.hpp"
#include "common/endian.hpp"
#include "common/error.hpp"

namespace hpm::mig {

namespace {

// Entry record layout:
//   u32 'HPMC' | u64 digest | u32 length | body
// No seal of its own: load() checks the header against the address asked
// for and re-derives the body's digest, so every byte is checked. An entry
// from before this layout (a u32 CRC-32 trailer, 20 bytes of overhead)
// fails open()'s size check and is unlinked as torn.
constexpr std::uint32_t kEntryMagic = 0x48504D43;  // "HPMC"
constexpr std::size_t kEntryHeader = 4 + 8 + 4;

/// "<16-hex digest>-<length>.chunk" → address, or false for foreign files
/// (the stats file, editor droppings) which open() must simply ignore.
bool parse_name(const std::string& name, ChunkAddr& addr) {
  if (name.size() < 16 + 1 + 1 + 6 || !name.ends_with(".chunk")) return false;
  std::uint64_t digest = 0;
  for (int i = 0; i < 16; ++i) {
    const char c = name[static_cast<std::size_t>(i)];
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    digest = (digest << 4) | nibble;
  }
  if (name[16] != '-') return false;
  std::uint64_t len = 0;
  const std::size_t len_end = name.size() - 6;  // strlen(".chunk")
  if (len_end <= 17) return false;
  for (std::size_t i = 17; i < len_end; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    len = len * 10 + static_cast<std::uint64_t>(c - '0');
    if (len > 0xFFFFFFFFull) return false;
  }
  addr.digest = digest;
  addr.length = static_cast<std::uint32_t>(len);
  return true;
}

}  // namespace

ChunkStore::ChunkStore(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {}

ChunkStore::~ChunkStore() {
  if (lock_fd_ >= 0) ::close(lock_fd_);
}

bool ChunkStore::lock_dir() {
  if (lock_fd_ < 0) {
    lock_fd_ = ::open((dir_ + "/.lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (lock_fd_ < 0) return false;  // degrade to uncoordinated
  }
  int rc;
  do {
    rc = ::flock(lock_fd_, LOCK_EX);
  } while (rc != 0 && errno == EINTR);
  return rc == 0;
}

void ChunkStore::unlock_dir() {
  if (lock_fd_ >= 0) ::flock(lock_fd_, LOCK_UN);
}

std::string ChunkStore::file_name(const ChunkAddr& addr) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%016llx-%lu.chunk",
                static_cast<unsigned long long>(addr.digest),
                static_cast<unsigned long>(addr.length));
  return buf;
}

ChunkAddr ChunkStore::address_of(std::span<const std::uint8_t> body) {
  ChunkAddr addr;
  addr.digest = StreamDigest::of(body);
  addr.length = static_cast<std::uint32_t>(body.size());
  return addr;
}

void ChunkStore::open() {
  std::lock_guard lk(mu_);
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) throw Error("chunk store: cannot create " + dir_ + ": " + ec.message());

  // Hold the cross-process lock for the scan: a concurrent GC unlinking
  // entries mid-iteration would make us index files about to vanish.
  const bool locked = lock_dir();
  struct Unlock {
    ChunkStore* s;
    bool armed;
    ~Unlock() {
      if (armed) s->unlock_dir();
    }
  } unlock{this, locked};

  // Index by file name; a size that disagrees with the name's own length
  // field is a torn write from a crashed run — unlink it, exactly as the
  // journal replay drops a torn tail. Body damage is caught at load().
  struct Found {
    std::string name;
    ChunkAddr addr;
    std::uint64_t file_bytes = 0;
    fs::file_time_type mtime;
  };
  std::vector<Found> found;
  for (const fs::directory_entry& de : fs::directory_iterator(dir_, ec)) {
    if (!de.is_regular_file(ec)) continue;
    Found f;
    f.name = de.path().filename().string();
    if (!parse_name(f.name, f.addr)) continue;
    f.file_bytes = de.file_size(ec);
    if (ec || f.file_bytes != kEntryHeader + f.addr.length) {
      fs::remove(de.path(), ec);  // torn entry: tolerate by dropping
      continue;
    }
    f.mtime = de.last_write_time(ec);
    found.push_back(std::move(f));
  }
  if (ec) throw Error("chunk store: cannot read " + dir_ + ": " + ec.message());

  // Seed LRU order from mtimes so eviction honours recency across runs.
  std::sort(found.begin(), found.end(),
            [](const Found& a, const Found& b) { return a.mtime < b.mtime; });
  index_.clear();
  lru_.clear();
  bytes_ = 0;
  for (Found& f : found) {
    lru_.push_front(f.name);
    Entry e;
    e.addr = f.addr;
    e.file_bytes = f.file_bytes;
    e.lru = lru_.begin();
    bytes_ += f.file_bytes;
    index_.emplace(std::move(f.name), e);
  }
}

bool ChunkStore::contains(const ChunkAddr& addr) const {
  std::lock_guard lk(mu_);
  return index_.count(file_name(addr)) != 0;
}

void ChunkStore::touch_locked(Entry& e, const std::string& name) {
  lru_.erase(e.lru);
  lru_.push_front(name);
  e.lru = lru_.begin();
}

void ChunkStore::drop_locked(std::string name, bool unlink_file) {
  auto it = index_.find(name);
  if (it == index_.end()) return;
  bytes_ -= it->second.file_bytes;
  lru_.erase(it->second.lru);
  if (unlink_file) ::unlink((dir_ + "/" + name).c_str());
  index_.erase(it);
}

bool ChunkStore::load(const ChunkAddr& addr, Bytes& out) {
  std::lock_guard lk(mu_);
  const std::string name = file_name(addr);
  auto it = index_.find(name);
  if (it == index_.end()) return false;

  // One read of the header and, straight into `out`, the body: the
  // chunk's own buffer, which the destination keeps as its segment, so
  // nothing copies the body after the read.
  std::uint8_t head[kEntryHeader];
  out.resize(addr.length);
  const std::uint64_t size = kEntryHeader + std::uint64_t{addr.length};
  const int fd = ::open((dir_ + "/" + name).c_str(), O_RDONLY | O_CLOEXEC);
  bool ok = fd >= 0;
  if (ok) {
    // Exact size: a grown file is damage too.
    struct stat st {};
    iovec parts[2] = {{head, kEntryHeader}, {out.data(), out.size()}};
    ok = ::fstat(fd, &st) == 0 && static_cast<std::uint64_t>(st.st_size) == size &&
         static_cast<std::uint64_t>(::preadv(fd, parts, 2, 0)) == size;
    ::close(fd);
  }
  if (ok) {
    ok = get_u32_be(head) == kEntryMagic && get_u64_be(head + 4) == addr.digest &&
         get_u32_be(head + 12) == addr.length;
  }
  if (ok) {
    // Recompute the body digest: a damaged or deliberately poisoned body
    // must miss.
    ok = StreamDigest::of(out) == addr.digest;
  }
  if (!ok) {
    out.clear();
    drop_locked(name, /*unlink_file=*/true);
    return false;
  }
  touch_locked(it->second, name);
  return true;
}

ChunkAddr ChunkStore::put(std::span<const std::uint8_t> body) {
  std::lock_guard lk(mu_);
  const ChunkAddr addr = address_of(body);
  const std::string name = file_name(addr);
  auto it = index_.find(name);
  if (it != index_.end()) {
    touch_locked(it->second, name);
    return addr;
  }

  Bytes record(kEntryHeader + body.size());
  put_u32_be(record.data(), kEntryMagic);
  put_u64_be(record.data() + 4, addr.digest);
  put_u32_be(record.data() + 12, addr.length);
  if (!body.empty()) std::memcpy(record.data() + kEntryHeader, body.data(), body.size());

  // Plain POSIX stdio, journal-style: the record must be on disk before
  // put() returns; a torn write is dropped at the next open().
  std::FILE* f = std::fopen((dir_ + "/" + name).c_str(), "wb");
  if (f == nullptr) throw Error("chunk store: cannot write " + dir_ + "/" + name);
  const bool ok = std::fwrite(record.data(), 1, record.size(), f) == record.size() &&
                  std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!ok) {
    ::unlink((dir_ + "/" + name).c_str());
    throw Error("chunk store: short write to " + dir_ + "/" + name);
  }

  lru_.push_front(name);
  Entry e;
  e.addr = addr;
  e.file_bytes = record.size();
  e.lru = lru_.begin();
  bytes_ += e.file_bytes;
  index_.emplace(name, e);
  evict_to_locked(max_bytes_);
  return addr;
}

void ChunkStore::evict_to_locked(std::uint64_t budget) {
  // Never evict the most-recently-used entry: a single over-budget chunk
  // stays cached rather than thrashing.
  while (bytes_ > budget && lru_.size() > 1) drop_locked(lru_.back(), /*unlink_file=*/true);
}

void ChunkStore::sync_dir() {
  std::lock_guard lk(mu_);
  const int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

std::size_t ChunkStore::gc(std::uint64_t budget) {
  std::size_t evicted = 0;
  {
    std::lock_guard lk(mu_);
    const bool locked = lock_dir();
    while (bytes_ > budget && !lru_.empty()) {
      drop_locked(lru_.back(), /*unlink_file=*/true);
      ++evicted;
    }
    if (locked) unlock_dir();
  }
  sync_dir();
  return evicted;
}

std::size_t ChunkStore::entries() const {
  std::lock_guard lk(mu_);
  return index_.size();
}

std::uint64_t ChunkStore::bytes() const {
  std::lock_guard lk(mu_);
  return bytes_;
}

void ChunkStore::note_run(std::uint64_t manifest_chunks, std::uint64_t hits,
                          std::uint64_t misses) {
  std::lock_guard lk(mu_);
  std::FILE* f = std::fopen((dir_ + "/last-run.stats").c_str(), "wb");
  if (f == nullptr) return;  // stats are advisory; never fail a migration
  std::fprintf(f, "hpm-chunk-cache-v1\nmanifest %llu\nhits %llu\nmisses %llu\n",
               static_cast<unsigned long long>(manifest_chunks),
               static_cast<unsigned long long>(hits),
               static_cast<unsigned long long>(misses));
  std::fflush(f);
  ::fsync(::fileno(f));
  std::fclose(f);
}

ChunkStore::RunStats ChunkStore::read_run_stats(const std::string& dir) {
  RunStats stats;
  std::FILE* f = std::fopen((dir + "/last-run.stats").c_str(), "rb");
  if (f == nullptr) return stats;
  char header[32] = {};
  unsigned long long manifest = 0, hits = 0, misses = 0;
  const bool ok = std::fscanf(f, "%31s manifest %llu hits %llu misses %llu", header, &manifest,
                              &hits, &misses) == 4 &&
                  std::strcmp(header, "hpm-chunk-cache-v1") == 0;
  std::fclose(f);
  if (!ok) return stats;
  stats.valid = true;
  stats.manifest_chunks = manifest;
  stats.hits = hits;
  stats.misses = misses;
  return stats;
}

}  // namespace hpm::mig
