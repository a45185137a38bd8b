// Architecture descriptor presets and the common/crc/rng plumbing,
// including the integrity hashes' equivalence to their reference
// definitions (sliced CRC-32, fused StreamDigest).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/hexdump.hpp"
#include "common/rng.hpp"
#include "msrm/stream.hpp"
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

TEST(Crc32, MatchesKnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (standard check value).
  EXPECT_EQ(Crc32::of("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, IncrementalEqualsOneShot) {
  Crc32 inc;
  inc.update("12345", 5);
  inc.update("6789", 4);
  EXPECT_EQ(inc.value(), Crc32::of("123456789", 9));
}

TEST(Crc32, EmptyInputHasDefinedValue) { EXPECT_EQ(Crc32::of("", 0), 0u); }

/// The CRC-32 definition, one bit at a time (reflected IEEE polynomial):
/// the reference the sliced implementation must reproduce exactly.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
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

TEST(Crc32, SlicedEqualsBitwiseAtEveryLengthOffsetAndSplit) {
  // Offsets 0-15 put every length at every alignment of the 16-byte
  // kernel's loads (unaligned reads are what the sanitizer build checks);
  // every split point covers a block cut at every position.
  const std::vector<std::uint8_t> buf = lcg_bytes(300 + 16);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = buf.data() + off;
      const std::uint32_t want = crc32_bitwise(p, len);
      ASSERT_EQ(Crc32::of(p, len), want) << "offset " << off << " length " << len;
      for (std::size_t cut = 0; cut <= len; ++cut) {
        Crc32 crc;
        crc.update(p, cut);
        crc.update(p + cut, len - cut);
        ASSERT_EQ(crc.value(), want)
            << "offset " << off << " length " << len << " cut " << cut;
      }
    }
  }
}

TEST(Crc32, SlicedEqualsBitwiseOnLargeInputs) {
  const std::vector<std::uint8_t> buf = lcg_bytes(70000);
  EXPECT_EQ(Crc32::of(buf.data(), buf.size()), crc32_bitwise(buf.data(), buf.size()));
  EXPECT_EQ(Crc32::of(buf.data(), buf.size()), 0x20a42e3cu);
}

// Known answers of msrm::StreamDigest over lcg_bytes(n), recorded from the
// byte-serial implementation this one replaced. The digest names chunks in
// every ChunkStore on disk and rides in every StateEnd and journal record,
// so these values may never change.
struct DigestAnswer {
  std::size_t n;
  std::uint64_t digest;
};
constexpr DigestAnswer kDigestAnswers[] = {
    {0, 0xcbf29ce484222325ull},     {1, 0xd7460de8dc59bfe6ull},
    {3, 0x5ca434f90744e497ull},     {15, 0x53d34f0350b5d2ceull},
    {16, 0x2b24570ea4cdcc3aull},    {17, 0x8f5118d97a413752ull},
    {255, 0x68c1d5cddb9daeb9ull},   {4095, 0xe4f761ffc30e8026ull},
    {4096, 0x5a49593d587d8267ull},  {4097, 0x08e321459419b517ull},
    {12289, 0x52f641f88f7f80e7ull}, {70000, 0x5c539dcad4a6fb2dull},
};

TEST(StreamDigest, MatchesRecordedKnownAnswers) {
  for (const DigestAnswer& a : kDigestAnswers) {
    const std::vector<std::uint8_t> b = lcg_bytes(a.n);
    EXPECT_EQ(msrm::StreamDigest::of(b), a.digest) << "n=" << a.n;
  }
  const auto* check = reinterpret_cast<const std::uint8_t*>("123456789");
  EXPECT_EQ(msrm::StreamDigest::of({check, 9}), 0xf5c6957a4675d5e2ull);
}

TEST(StreamDigest, ValueIsIndependentOfHowTheInputIsSplit) {
  const std::vector<std::uint8_t> b = lcg_bytes(70000);
  const std::uint64_t whole = msrm::StreamDigest::of(b);
  const std::span<const std::uint8_t> all(b);
  // Two-way cuts on both sides of the 16-byte kernel and 4 KiB boundaries.
  for (const std::size_t cut : {1u, 15u, 16u, 17u, 31u, 33u, 4095u, 4096u, 4097u, 8191u, 8193u,
                                65535u, 65536u, 65537u, 69999u}) {
    msrm::StreamDigest d;
    d.update(all.first(cut));
    d.update(all.subspan(cut));
    EXPECT_EQ(d.value(), whole) << "cut " << cut;
    // The CRC half equals a plain CRC-32 of the same bytes.
    EXPECT_EQ(d.crc().value(), Crc32::of(b.data(), b.size()));
  }
  // Many-way cuts of pseudo-random widths (1..5000 bytes), seeded.
  Rng rng(2024);
  for (int round = 0; round < 8; ++round) {
    msrm::StreamDigest d;
    std::size_t pos = 0;
    while (pos < b.size()) {
      const std::size_t n = std::min<std::size_t>(b.size() - pos, 1 + rng.next_below(5000));
      d.update(all.subspan(pos, n));
      pos += n;
    }
    EXPECT_EQ(d.value(), whole) << "round " << round;
  }
  // Byte at a time over a prefix that spans a 4 KiB boundary.
  msrm::StreamDigest bytewise;
  for (std::size_t i = 0; i < 4097; ++i) bytewise.update(all.subspan(i, 1));
  EXPECT_EQ(bytewise.value(), kDigestAnswers[9].digest);
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
