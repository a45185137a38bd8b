// Architecture descriptor presets and the common/digest/rng plumbing,
// including the integrity hash's equivalence to its reference definition
// (the multi-lane StreamDigest) and the 32-bit fold that seals frames and
// journal records.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/hexdump.hpp"
#include "common/rng.hpp"
#include "xdr/arch.hpp"

namespace hpm {
namespace {

using xdr::ArchDescriptor;
using xdr::PrimKind;

TEST(Arch, PaperTestbedPairIsTrulyHeterogeneous) {
  // DEC 5000/120 vs SPARC 20: "truly heterogeneous because both systems
  // use different endianness" (paper §4.1).
  EXPECT_EQ(xdr::dec5000_ultrix().order, xdr::ByteOrder::Little);
  EXPECT_EQ(xdr::sparc20_solaris().order, xdr::ByteOrder::Big);
  EXPECT_FALSE(xdr::dec5000_ultrix().same_data_model(xdr::sparc20_solaris()));
}

TEST(Arch, Ilp32PresetsHave4ByteLongsAndPointers) {
  for (const auto* a : {&xdr::dec5000_ultrix(), &xdr::sparc20_solaris(),
                        &xdr::ultra5_solaris(), &xdr::arm32_linux(), &xdr::i386_linux()}) {
    EXPECT_EQ(a->layout(PrimKind::Long).size, 4u) << a->name;
    EXPECT_EQ(a->pointer.size, 4u) << a->name;
    EXPECT_EQ(a->layout(PrimKind::LongLong).size, 8u) << a->name;
  }
}

TEST(Arch, I386AlignsDoubleTo4Bytes) {
  EXPECT_EQ(xdr::i386_linux().layout(PrimKind::Double).align, 4u);
  EXPECT_EQ(xdr::sparc20_solaris().layout(PrimKind::Double).align, 8u);
}

TEST(Arch, Ultra5AndSparc20ShareADataModel) {
  EXPECT_TRUE(xdr::ultra5_solaris().same_data_model(xdr::sparc20_solaris()));
}

TEST(Arch, ByNameResolvesEveryPresetAndRejectsUnknown) {
  for (const auto name : xdr::arch_names()) {
    EXPECT_EQ(xdr::arch_by_name(name).name, name);
  }
  EXPECT_THROW(xdr::arch_by_name("vax_vms"), TypeError);
}

TEST(Arch, NativeMatchesCompilerLayout) {
  const ArchDescriptor& n = xdr::native_arch();
  EXPECT_EQ(n.layout(PrimKind::Int).size, sizeof(int));
  EXPECT_EQ(n.layout(PrimKind::Long).size, sizeof(long));
  EXPECT_EQ(n.layout(PrimKind::Double).align, alignof(double));
  EXPECT_EQ(n.pointer.size, sizeof(void*));
}

TEST(Arch, CanonicalSizesCoverWidestModel) {
  for (std::size_t i = 0; i < xdr::kNumPrimKinds; ++i) {
    const auto kind = static_cast<PrimKind>(i);
    for (const auto name : xdr::arch_names()) {
      EXPECT_GE(xdr::canonical_size(kind), xdr::arch_by_name(name).layout(kind).size)
          << prim_name(kind) << " on " << name;
    }
  }
}

/// Deterministic test bytes (a 32-bit LCG's top byte). The known-answer
/// digests below were computed over exactly these bytes.
std::vector<std::uint8_t> lcg_bytes(std::size_t n) {
  std::vector<std::uint8_t> b(n);
  std::uint32_t x = 0x12345678u;
  for (std::uint8_t& v : b) {
    x = x * 1664525u + 1013904223u;
    v = static_cast<std::uint8_t>(x >> 24);
  }
  return b;
}

// Known answers of StreamDigest (Digest v2) over lcg_bytes(n),
// recorded from a separate reference implementation of the hash written
// straight from its definition. The digest names chunks in every
// ChunkStore on disk and rides in every stream trailer, StateEnd and
// journal record (and, folded, seals every frame), so these values may
// never change without a protocol
// version bump. The lengths straddle the 8-byte word, the 32-byte stripe
// and 4 KiB.
struct DigestAnswer {
  std::size_t n;
  std::uint64_t digest;
};
constexpr DigestAnswer kDigestAnswers[] = {
    {0, 0x3fdf455f9dcf1e62ull},     {1, 0x3082f3f5abd51d27ull},
    {3, 0x4bf4541a4a573495ull},     {7, 0x190ada48e65399fdull},
    {8, 0x34d4e2f19f8f7cd7ull},     {9, 0xa4687e7b79c4a7a8ull},
    {31, 0x8a920df0966d66c6ull},    {32, 0xaf6e5434b01b0d77ull},
    {33, 0xee598302c8e5749bull},    {63, 0x5dd8bf5786e1ec68ull},
    {64, 0x7af64d1c122565b9ull},    {65, 0x871d6060756b3fc7ull},
    {255, 0xba8c274c8dee1c22ull},   {4095, 0xc41a875d7cd32eefull},
    {4096, 0x3a92151c939fde12ull},  {4097, 0xba6b62e0044812e9ull},
    {12289, 0x6e97db555a0c7dedull}, {70000, 0x3055a243baf11306ull},
};

TEST(StreamDigest, MatchesRecordedKnownAnswers) {
  for (const DigestAnswer& a : kDigestAnswers) {
    const std::vector<std::uint8_t> b = lcg_bytes(a.n);
    EXPECT_EQ(StreamDigest::of(b), a.digest) << "n=" << a.n;
  }
  const auto* check = reinterpret_cast<const std::uint8_t*>("123456789");
  EXPECT_EQ(StreamDigest::of({check, 9}), 0x28ad3061afe40021ull);
}

/// The Digest v2 definition, fed one byte at a time: bytes are shifted
/// into little-endian words by arithmetic, a word completes a lane round,
/// four words a stripe. No carry buffer and no bulk loop, so it shares no
/// code path with the production update().
std::uint64_t digest_bytewise(const std::uint8_t* p, std::size_t n) {
  constexpr std::uint64_t P1 = 0x9E3779B185EBCA87ull, P2 = 0xC2B2AE3D27D4EB4Full,
                          P3 = 0x165667B19E3779F9ull, P4 = 0x85EBCA77C2B2AE63ull;
  const auto rotl = [](std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  const auto round = [&](std::uint64_t acc, std::uint64_t w) {
    return rotl(acc + w * P2, 31) * P1;
  };
  std::uint64_t lane[4] = {P1 + P2, P2, 0, 0 - P1};
  std::uint64_t words[4] = {};  // the current stripe's words, filled byte by byte
  std::size_t in_stripe = 0;    // bytes of the current stripe seen
  for (std::size_t i = 0; i < n; ++i) {
    words[in_stripe / 8] |= static_cast<std::uint64_t>(p[i]) << (8 * (in_stripe % 8));
    if (++in_stripe == 32) {
      for (int k = 0; k < 4; ++k) lane[k] = round(lane[k], words[k]);
      for (std::uint64_t& w : words) w = 0;
      in_stripe = 0;
    }
  }
  std::uint64_t h = rotl(lane[0], 1) + rotl(lane[1], 7) + rotl(lane[2], 12) + rotl(lane[3], 18);
  for (const std::uint64_t v : lane) h = (h ^ round(0, v)) * P1 + P4;
  h += n;
  for (std::size_t k = 0; k * 8 < in_stripe; ++k) h = rotl(h ^ round(0, words[k]), 27) * P1 + P4;
  h ^= h >> 33;
  h *= P2;
  h ^= h >> 29;
  h *= P3;
  h ^= h >> 32;
  return h;
}

TEST(StreamDigest, MatchesAByteAtATimeReference) {
  // Every length up to three stripes past 256, at every word alignment
  // (the word loads are unaligned at offsets 1-7), then one large input.
  const std::vector<std::uint8_t> buf = lcg_bytes(352 + 8);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 352; ++len) {
      const std::uint8_t* p = buf.data() + off;
      ASSERT_EQ(StreamDigest::of({p, len}), digest_bytewise(p, len))
          << "offset " << off << " length " << len;
    }
  }
  const std::vector<std::uint8_t> big = lcg_bytes(70000);
  EXPECT_EQ(StreamDigest::of(big), digest_bytewise(big.data(), big.size()));
}

TEST(StreamDigest, ValueIsIndependentOfHowTheInputIsSplit) {
  // Every three-way split of a 100-byte input (three stripes and a
  // tail); cut2 == cut gives every two-way split point.
  const std::vector<std::uint8_t> small = lcg_bytes(100);
  const std::span<const std::uint8_t> s(small);
  const std::uint64_t small_whole = StreamDigest::of(s);
  for (std::size_t cut = 0; cut <= s.size(); ++cut) {
    for (std::size_t cut2 = cut; cut2 <= s.size(); ++cut2) {
      StreamDigest d;
      d.update(s.first(cut));
      d.update(s.subspan(cut, cut2 - cut));
      d.update(s.subspan(cut2));
      ASSERT_EQ(d.value(), small_whole) << "cuts " << cut << ", " << cut2;
    }
  }
  // value() is const and repeatable mid-stream: reading it between
  // updates changes nothing.
  StreamDigest peeked;
  peeked.update(s.first(45));
  EXPECT_EQ(peeked.value(), StreamDigest::of(s.first(45)));
  peeked.update(s.subspan(45));
  EXPECT_EQ(peeked.value(), small_whole);

  // Random multi-way splits of 64 KiB, widths 0..5000 bytes, seeded.
  const std::vector<std::uint8_t> b = lcg_bytes(64 * 1024);
  const std::span<const std::uint8_t> all(b);
  const std::uint64_t whole = StreamDigest::of(all);
  Rng rng(2024);
  for (int round = 0; round < 16; ++round) {
    StreamDigest d;
    std::size_t pos = 0;
    while (pos < b.size()) {
      const std::size_t n = std::min<std::size_t>(b.size() - pos, rng.next_below(5001));
      d.update(all.subspan(pos, n));
      pos += n;
    }
    EXPECT_EQ(d.value(), whole) << "round " << round;
  }
  // Byte at a time over a prefix that spans a 4 KiB boundary.
  StreamDigest bytewise;
  for (std::size_t i = 0; i < 4097; ++i) bytewise.update(all.subspan(i, 1));
  EXPECT_EQ(bytewise.value(), kDigestAnswers[15].digest);
}

TEST(StreamDigest, Fold32XorsTheHalves) {
  EXPECT_EQ(fold32(0x0123456789ABCDEFull), 0x01234567u ^ 0x89ABCDEFu);
  EXPECT_EQ(fold32(0xFFFFFFFF00000000ull), 0xFFFFFFFFu);
  // The 4-byte seal of the check string "123456789" (digest
  // 0x28ad3061afe40021, pinned above): 0x28ad3061 ^ 0xafe40021.
  const auto* check = reinterpret_cast<const std::uint8_t*>("123456789");
  EXPECT_EQ(fold32(StreamDigest::of({check, 9})), 0x87493040u);
}

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BoundsAreRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const int v = rng.next_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Hexdump, RendersOffsetsHexAndAscii) {
  const std::string s = hexdump("AB\x01", 3);
  EXPECT_NE(s.find("41 42 01"), std::string::npos);
  EXPECT_NE(s.find("|AB.|"), std::string::npos);
}

TEST(Hexdump, TruncatesLongBuffers) {
  std::vector<std::uint8_t> big(1000, 0x42);
  const std::string s = hexdump(big.data(), big.size(), 64);
  EXPECT_NE(s.find("more bytes"), std::string::npos);
}

}  // namespace
}  // namespace hpm
