// Canonical wire encoder/decoder: byte-level format, bounds, errors.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "xdr/wire.hpp"

namespace hpm::xdr {
namespace {

TEST(Encoder, IntegersAreBigEndian) {
  Encoder enc;
  enc.put_u16(0x1234);
  enc.put_u32(0xA1B2C3D4);
  enc.put_u64(0x0102030405060708ull);
  const Bytes& b = enc.bytes();
  ASSERT_EQ(b.size(), 14u);
  EXPECT_EQ(b[0], 0x12);
  EXPECT_EQ(b[1], 0x34);
  EXPECT_EQ(b[2], 0xA1);
  EXPECT_EQ(b[5], 0xD4);
  EXPECT_EQ(b[6], 0x01);
  EXPECT_EQ(b[13], 0x08);
}

TEST(Encoder, SignedValuesRoundTripThroughTwosComplement) {
  Encoder enc;
  enc.put_i8(-1);
  enc.put_i16(-2);
  enc.put_i32(-3);
  enc.put_i64(-4);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_i8(), -1);
  EXPECT_EQ(dec.get_i16(), -2);
  EXPECT_EQ(dec.get_i32(), -3);
  EXPECT_EQ(dec.get_i64(), -4);
}

TEST(Encoder, FloatsUseIeeeBitImages) {
  Encoder enc;
  enc.put_f32(1.0f);
  const Bytes& b = enc.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x3F);  // 1.0f = 0x3F800000 big-endian
  EXPECT_EQ(b[1], 0x80);
  EXPECT_EQ(b[2], 0x00);
  EXPECT_EQ(b[3], 0x00);
}

TEST(Encoder, StringsAreLengthPrefixed) {
  Encoder enc;
  enc.put_string("hpm");
  const Bytes& b = enc.bytes();
  ASSERT_EQ(b.size(), 7u);
  EXPECT_EQ(b[3], 3u);
  EXPECT_EQ(b[4], 'h');
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_string(), "hpm");
}

TEST(Encoder, EmptyStringRoundTrips) {
  Encoder enc;
  enc.put_string("");
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_string(), "");
  EXPECT_TRUE(dec.at_end());
}

TEST(Encoder, PatchU32RewritesInPlace) {
  Encoder enc;
  enc.put_u32(0);
  enc.put_u8(0xAA);
  enc.patch_u32(0, 0xDEADBEEF);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.get_u8(), 0xAA);
}

TEST(Encoder, PatchBeyondEndThrows) {
  Encoder enc;
  enc.put_u16(1);
  EXPECT_THROW(enc.patch_u32(0, 1), WireError);
}

TEST(Decoder, ReadPastEndThrowsWireError) {
  Encoder enc;
  enc.put_u16(7);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_u8(), 0u);
  EXPECT_EQ(dec.get_u8(), 7u);
  EXPECT_THROW(dec.get_u8(), WireError);
}

TEST(Decoder, TruncatedStringThrows) {
  Encoder enc;
  enc.put_u32(100);  // claims 100 bytes follow
  enc.put_u8('x');
  Decoder dec(enc.bytes());
  EXPECT_THROW(dec.get_string(), WireError);
}

TEST(Decoder, PeekDoesNotConsume) {
  Encoder enc;
  enc.put_u8(42);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.peek_u8(), 42u);
  EXPECT_EQ(dec.position(), 0u);
  EXPECT_EQ(dec.get_u8(), 42u);
  EXPECT_TRUE(dec.at_end());
  EXPECT_THROW(dec.peek_u8(), WireError);
}

TEST(Decoder, GetBytesIsExact) {
  Encoder enc;
  const char payload[] = "abcdef";
  enc.put_bytes(payload, 6);
  Decoder dec(enc.bytes());
  char out[6] = {};
  dec.get_bytes(out, 6);
  EXPECT_EQ(std::string(out, 6), "abcdef");
  EXPECT_THROW(dec.get_bytes(out, 1), WireError);
}

TEST(Decoder, RemainingTracksPosition) {
  Encoder enc;
  enc.put_u64(1);
  enc.put_u32(2);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.remaining(), 12u);
  dec.get_u64();
  EXPECT_EQ(dec.remaining(), 4u);
  dec.get_u32();
  EXPECT_EQ(dec.remaining(), 0u);
  EXPECT_TRUE(dec.at_end());
}

/// A stream of every read kind, and a decode of it that logs what each
/// read returned: primitives of every width, a peek, short and long
/// strings, an empty string, and byte runs long enough to span several
/// small segments.
Bytes representative_stream() {
  Encoder enc;
  enc.put_u8(0xA5);
  enc.put_u16(0xBEEF);
  enc.put_u32(0xDEADBEEF);
  enc.put_u64(0x0123456789ABCDEFull);
  enc.put_i16(-12345);
  enc.put_f32(3.25f);
  enc.put_f64(-0.1);
  enc.put_bool(true);
  enc.put_string("segment");
  enc.put_string("");
  Bytes run(40);
  for (std::size_t i = 0; i < run.size(); ++i) run[i] = static_cast<std::uint8_t>(7 * i + 1);
  enc.put_bytes(run.data(), run.size());
  enc.put_u8(0x42);  // peeked, then read
  enc.put_string(std::string(29, 'x') + "tail");
  enc.put_i64(-2);
  enc.put_bytes(run.data(), 3);
  return enc.take();
}

std::vector<std::string> decode_log(Decoder& dec) {
  std::vector<std::string> log;
  log.push_back(std::to_string(dec.get_u8()));
  log.push_back(std::to_string(dec.get_u16()));
  log.push_back(std::to_string(dec.get_u32()));
  log.push_back(std::to_string(dec.get_u64()));
  log.push_back(std::to_string(dec.get_i16()));
  log.push_back(std::to_string(dec.get_f32()));
  log.push_back(std::to_string(dec.get_f64()));
  log.push_back(std::to_string(dec.get_bool()));
  log.push_back(dec.get_string());
  log.push_back(dec.get_string());
  Bytes run(40);
  dec.get_bytes(run.data(), run.size());
  log.emplace_back(run.begin(), run.end());
  log.push_back(std::to_string(dec.peek_u8()));
  log.push_back(std::to_string(dec.get_u8()));
  log.push_back(dec.get_string());
  log.push_back(std::to_string(dec.get_i64()));
  dec.get_bytes(run.data(), 3);
  log.emplace_back(run.begin(), run.begin() + 3);
  log.push_back(std::to_string(dec.position()));
  return log;
}

/// A decoder over `stream` cut at `cuts` (ascending offsets), fed one
/// segment at a time by its refill.
struct SegmentedDecode {
  SegmentedDecode(std::span<const std::uint8_t> stream, std::vector<std::size_t> cuts) {
    std::size_t from = 0;
    for (const std::size_t cut : cuts) {
      segments.push_back(stream.subspan(from, cut - from));
      from = cut;
    }
    segments.push_back(stream.subspan(from));
    dec.set_refill([this](std::size_t) {
      if (next == segments.size()) return false;
      dec.next_segment(segments[next++]);
      return true;
    });
  }

  std::vector<std::span<const std::uint8_t>> segments;
  std::size_t next = 0;
  Decoder dec{std::span<const std::uint8_t>{}};
};

TEST(SegmentedDecoder, EverySplitDecodesLikeTheContiguousStream) {
  const Bytes stream = representative_stream();
  Decoder whole(stream);
  const std::vector<std::string> want = decode_log(whole);
  ASSERT_TRUE(whole.at_end());
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    SegmentedDecode two(stream, {cut});
    EXPECT_EQ(decode_log(two.dec), want) << "split at " << cut;
    for (std::size_t cut2 = cut; cut2 <= stream.size(); ++cut2) {
      SegmentedDecode three(stream, {cut, cut2});
      ASSERT_EQ(decode_log(three.dec), want) << "split at " << cut << " and " << cut2;
    }
  }
  std::vector<std::size_t> every_byte;
  for (std::size_t cut = 1; cut < stream.size(); ++cut) every_byte.push_back(cut);
  SegmentedDecode bytewise(stream, every_byte);
  EXPECT_EQ(decode_log(bytewise.dec), want) << "one byte per segment";
}

TEST(SegmentedDecoder, ATruncatedFinalSegmentIsAWireError) {
  const Bytes stream = representative_stream();
  for (std::size_t len = 0; len < stream.size(); ++len) {
    const std::span<const std::uint8_t> prefix = std::span(stream).first(len);
    for (std::size_t cut = 0; cut <= len; ++cut) {
      SegmentedDecode cut_short(prefix, {cut});
      EXPECT_THROW(decode_log(cut_short.dec), WireError)
          << len << " of " << stream.size() << " bytes, split at " << cut;
    }
  }
}

/// Round-trip sweep over interesting 64-bit values.
class WireValueSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireValueSweep, U64RoundTrips) {
  Encoder enc;
  enc.put_u64(GetParam());
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_u64(), GetParam());
}

TEST_P(WireValueSweep, I64RoundTrips) {
  const auto v = static_cast<std::int64_t>(GetParam());
  Encoder enc;
  enc.put_i64(v);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_i64(), v);
}

INSTANTIATE_TEST_SUITE_P(Boundaries, WireValueSweep,
                         ::testing::Values(0ull, 1ull, 0x7Full, 0x80ull, 0xFFull, 0x100ull,
                                           0x7FFFull, 0x8000ull, 0xFFFFFFFFull,
                                           0x100000000ull, 0x7FFFFFFFFFFFFFFFull,
                                           0x8000000000000000ull, 0xFFFFFFFFFFFFFFFFull));

}  // namespace
}  // namespace hpm::xdr
