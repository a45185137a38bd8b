// Property-based check of the MSRLT's one address index against a
// brute-force oracle: a test-local, unsorted list of live intervals
// searched by linear scan. Randomized insert/erase/lookup
// sequences — zero sizes, overlaps, ranges near 0 and near 2^64 (some
// wrapping past it), erases of untracked bases — must produce the same
// accept/reject decisions, the same containing block (misses included),
// iteration in ascending base order, and correct find_id answers for every
// live block and for an unknown id.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "msr/msrlt.hpp"

namespace hpm {
namespace {

using msr::Address;
using msr::BlockId;
using msr::MemoryBlock;

struct Interval {
  Address base;
  std::uint64_t size;
  BlockId id;
};

class Harness {
 public:
  /// Register in the MSRLT; the oracle decides whether it must be accepted.
  void insert(Address base, std::uint64_t size) {
    const bool legal = size != 0 && size <= ~base &&
                       std::none_of(live_.begin(), live_.end(), [&](const Interval& iv) {
                         return base < iv.base + iv.size && iv.base < base + size;
                       });
    const std::size_t count = table_.block_count();
    const std::uint64_t bytes = table_.tracked_bytes();
    BlockId id = msr::kInvalidBlock;
    bool accepted = true;
    try {
      id = table_.register_block(msr::Segment::Heap, base, size, 1, 1);
    } catch (const MsrError&) {
      accepted = false;
    }
    ASSERT_EQ(accepted, legal) << "insert divergence at base=" << base << " size=" << size;
    if (accepted) {
      live_.push_back({base, size, id});
    } else {
      ASSERT_EQ(table_.block_count(), count);
      ASSERT_EQ(table_.tracked_bytes(), bytes);
    }
  }

  void erase_random(std::mt19937_64& rng) {
    if (live_.empty()) return;
    erase(live_[rng() % live_.size()].base);
  }

  /// Unregister `base`; must succeed exactly when a live block starts there.
  void erase(Address base) {
    const auto it = std::find_if(live_.begin(), live_.end(),
                                 [&](const Interval& iv) { return iv.base == base; });
    bool erased = true;
    try {
      table_.unregister(base);
    } catch (const MsrError&) {
      erased = false;
    }
    ASSERT_EQ(erased, it != live_.end()) << "erase divergence at base=" << base;
    if (erased) live_.erase(it);
  }

  void check_lookup(Address addr) {
    const Interval* want = containing(addr);
    const MemoryBlock* got = table_.find_containing(addr);
    ASSERT_EQ(got == nullptr, want == nullptr) << "hit/miss divergence at " << addr;
    if (got != nullptr) {
      EXPECT_EQ(got->id, want->id);
      EXPECT_EQ(got->base, want->base);
      EXPECT_EQ(got->size, want->size);
    }
    const MemoryBlock* at = table_.find_base(addr);
    const bool based = want != nullptr && want->base == addr;
    ASSERT_EQ(at != nullptr, based) << "find_base divergence at " << addr;
    if (based) {
      EXPECT_EQ(at->id, want->id);
    }
  }

  /// Iteration order, counts and by-id lookups against the oracle;
  /// `probes` are searched again in the current table.
  void check_full_state(const std::vector<Address>& probes) {
    std::vector<Interval> sorted = live_;
    std::sort(sorted.begin(), sorted.end(),
              [](const Interval& a, const Interval& b) { return a.base < b.base; });
    ASSERT_EQ(table_.block_count(), sorted.size());
    std::uint64_t bytes = 0;
    for (const Interval& iv : sorted) bytes += iv.size;
    EXPECT_EQ(table_.tracked_bytes(), bytes);

    std::vector<std::pair<Address, BlockId>> order, want;
    table_.for_each_block([&](const MemoryBlock& b) { order.emplace_back(b.base, b.id); });
    for (const Interval& iv : sorted) want.emplace_back(iv.base, iv.id);
    ASSERT_EQ(order, want);

    for (const Interval& iv : sorted) {
      const MemoryBlock* by_id = table_.find_id(iv.id);
      ASSERT_NE(by_id, nullptr) << "id " << iv.id;
      EXPECT_EQ(by_id->base, iv.base);
      EXPECT_EQ(by_id->size, iv.size);
    }
    const BlockId unknown = msr::make_block_id(msr::Segment::Heap, 1ull << 40);
    EXPECT_EQ(table_.find_id(unknown), nullptr);
    for (const Address addr : probes) check_lookup(addr);
  }

  [[nodiscard]] std::size_t live_count() const { return live_.size(); }

 private:
  const Interval* containing(Address addr) const {
    for (const Interval& iv : live_) {
      if (addr >= iv.base && addr - iv.base < iv.size) return &iv;
    }
    return nullptr;
  }

  msr::Msrlt table_;
  std::vector<Interval> live_;  // the oracle: unsorted, searched linearly
};

/// A probe address: mostly in the populated range, sometimes at the
/// edges of the address space.
Address probe(std::mt19937_64& rng, int i) {
  if (i % 17 == 0) return rng() % 64;
  if (i % 23 == 0) return ~0ull - (rng() % 512);
  return rng() % 400000;
}

TEST(MsrltIndexProperty, RandomizedOperationSequencesMatchOracle) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    std::mt19937_64 rng(seed);
    Harness h;
    for (int round = 0; round < 6; ++round) {
      // Burst of inserts (some deliberately overlapping / zero-sized), a
      // few at address 0 and a few near 2^64, where a range can wrap.
      for (int i = 0; i < 300; ++i) {
        Address base = 64 + (rng() % 40000) * 8;
        std::uint64_t size = (rng() % 10 == 0) ? 0 : 8 + rng() % 120;
        if (i % 29 == 0) base = rng() % 32;
        if (i % 31 == 0) {
          base = ~0ull - (rng() % 512);
          size = 1 + rng() % 64;
        }
        h.insert(base, size);
        if (::testing::Test::HasFatalFailure()) return;
      }
      // Mixed probes: interior hits, gaps, both ends of the address space.
      std::vector<Address> probes;
      for (int i = 0; i < 800; ++i) {
        probes.push_back(probe(rng, i));
        h.check_lookup(probes.back());
        if (::testing::Test::HasFatalFailure()) return;
      }
      // Erase a slice plus some untracked bases, then probe again.
      const std::size_t victims = h.live_count() / 3;
      for (std::size_t i = 0; i < victims; ++i) h.erase_random(rng);
      for (int i = 0; i < 20; ++i) h.erase(1 + (rng() % 40000) * 8);
      if (::testing::Test::HasFatalFailure()) return;
      for (int i = 0; i < 400; ++i) h.check_lookup(probe(rng, i));
      h.check_full_state(probes);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(MsrltIndexProperty, MassEraseThenReinsert) {
  std::mt19937_64 rng(99);
  Harness h;
  for (int i = 0; i < 2000; ++i) h.insert(64 + (rng() % 100000) * 8, 8 + rng() % 56);
  while (h.live_count() > 10) h.erase_random(rng);
  std::vector<Address> probes;
  for (int i = 0; i < 1000; ++i) probes.push_back(rng() % 900000);
  h.check_full_state(probes);
  for (int i = 0; i < 500; ++i) h.insert(64 + (rng() % 100000) * 8, 8 + rng() % 56);
  for (const Address addr : probes) h.check_lookup(addr);
  h.check_full_state(probes);
}

}  // namespace
}  // namespace hpm
