// The collection/restoration engine: host-to-host round trips over every
// pointer topology the MSR model supports, plus wire-level failure
// injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <vector>

#include "apps/workload.hpp"
#include "common/rng.hpp"
#include "msr/host_space.hpp"
#include "msrm/collect.hpp"
#include "msrm/restore.hpp"
#include "msrm/stream.hpp"
#include "obs/metrics.hpp"
#include "support/crc32_reference.hpp"
#include "ti/describe.hpp"

namespace hpm::msrm {
namespace {

using msr::Address;
using msr::BlockId;
using msr::HostSpace;
using msr::Segment;

struct Cell {
  long value;
  Cell* next;
};

/// Forwards to a HostSpace but refuses allocations above `cap` bytes with
/// std::bad_alloc: a deterministic stand-in for an exhausted allocator
/// (asking a sanitizer-instrumented allocator for 64 GiB aborts instead).
class CappedSpace final : public msr::MemorySpace {
 public:
  CappedSpace(HostSpace& host, std::uint64_t cap) : host_(host), cap_(cap) {}

  const xdr::ArchDescriptor& arch() const noexcept override { return host_.arch(); }
  const ti::TypeTable& types() const noexcept override { return host_.types(); }
  const ti::LayoutMap& layouts() const noexcept override { return host_.layouts(); }
  const ti::LeafIndex& leaves() const noexcept override { return host_.leaves(); }
  msr::Msrlt& msrlt() noexcept override { return host_.msrlt(); }
  const msr::Msrlt& msrlt() const noexcept override { return host_.msrlt(); }
  xdr::PrimValue read_prim(Address addr, xdr::PrimKind k) const override {
    return host_.read_prim(addr, k);
  }
  void write_prim(Address addr, xdr::PrimKind k, const xdr::PrimValue& v) override {
    host_.write_prim(addr, k, v);
  }
  Address read_pointer(Address addr) const override { return host_.read_pointer(addr); }
  void write_pointer(Address addr, Address value) override { host_.write_pointer(addr, value); }
  Address allocate(std::uint64_t size) override {
    if (size > cap_) throw std::bad_alloc();
    return host_.allocate(size);
  }
  void deallocate(Address base) noexcept override { host_.deallocate(base); }

 private:
  HostSpace& host_;
  std::uint64_t cap_;
};

class RoundTrip : public ::testing::Test {
 protected:
  RoundTrip() : src_(table_), dst_(table_) {
    ti::StructBuilder<Cell> b(table_, "cell");
    HPM_TI_FIELD(b, Cell, value);
    HPM_TI_FIELD(b, Cell, next);
    cell_type_ = b.commit();
  }

  /// Collect one variable from src_, restore into dst_, return the
  /// destination block's base address.
  Address round_trip(const void* var_addr) {
    const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
    xdr::Encoder enc;
    Collector collector(src_, enc);
    collector.save_variable(reinterpret_cast<Address>(var_addr));
    bytes_ = enc.take();
    collect_ = obs::Registry::process().snapshot().delta_since(before);
    dec_.emplace(bytes_);
    restorer_.emplace(dst_, *dec_);
    restorer_->set_auto_bind(true);
    const BlockId dest = restorer_->restore_variable();
    return dst_.msrlt().find_id(dest)->base;
  }

  /// A lone 26-byte PNEW header: one heap block of `count` cells whose
  /// body never follows.
  Bytes cell_pnew(std::uint32_t count) const {
    xdr::Encoder enc;
    enc.put_u8(kPtrNew);
    enc.put_u64(msr::make_block_id(Segment::Heap, 1));
    enc.put_u64(0);
    enc.put_u8(static_cast<std::uint8_t>(Segment::Heap));
    enc.put_u32(cell_type_);
    enc.put_u32(count);
    return enc.take();
  }

  ti::TypeTable table_;
  HostSpace src_;
  HostSpace dst_;
  ti::TypeId cell_type_ = ti::kInvalidType;
  Bytes bytes_;
  obs::MetricsSnapshot collect_;  ///< registry delta across the collect phase
  std::optional<xdr::Decoder> dec_;
  std::optional<Restorer> restorer_;
};

TEST_F(RoundTrip, ScalarVariable) {
  double pi = 3.14159265358979;
  src_.track(Segment::Global, pi, "pi", table_.primitive(xdr::PrimKind::Double), 1);
  const Address out = round_trip(&pi);
  EXPECT_EQ(*reinterpret_cast<double*>(out), pi);
  EXPECT_EQ(collect_.counter("msrm.collect.blocks_saved"), 1u);
  EXPECT_EQ(collect_.counter("msrm.collect.prim_leaves"), 1u);
}

TEST_F(RoundTrip, LargePrimitiveArrayTakesTheFlatPath) {
  std::vector<double> big(5000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * 0.25;
  src_.track_raw(Segment::Heap, big.data(), table_.primitive(xdr::PrimKind::Double),
                 static_cast<std::uint32_t>(big.size()), "big");
  const Address out = round_trip(big.data());
  const double* d = reinterpret_cast<double*>(out);
  for (std::size_t i = 0; i < big.size(); ++i) ASSERT_EQ(d[i], i * 0.25);
  EXPECT_EQ(collect_.counter("msrm.collect.prim_leaves"), 5000u);
  EXPECT_EQ(collect_.counter("msrm.collect.ptr_leaves"), 0u);
  // Pointer-free array of doubles: same-arch streams take the bulk body.
  EXPECT_EQ(collect_.counter("msrm.collect.bulk_bodies"), 1u);
  EXPECT_EQ(collect_.counter("msrm.collect.bulk_bytes"), 5000u * sizeof(double));
}

TEST_F(RoundTrip, MixedStructValues) {
  struct Mixed {
    bool flag;
    char letter;
    short small;
    int medium;
    long long big;
    float f;
    double d;
    unsigned long ul;
  };
  ti::StructBuilder<Mixed> b(table_, "mixed_struct");
  HPM_TI_FIELD(b, Mixed, flag);
  HPM_TI_FIELD(b, Mixed, letter);
  HPM_TI_FIELD(b, Mixed, small);
  HPM_TI_FIELD(b, Mixed, medium);
  HPM_TI_FIELD(b, Mixed, big);
  HPM_TI_FIELD(b, Mixed, f);
  HPM_TI_FIELD(b, Mixed, d);
  HPM_TI_FIELD(b, Mixed, ul);
  const ti::TypeId id = b.commit();
  Mixed m{true, 'Q', -77, 123456, -98765432101234ll, 2.5f, -0.125, 4000000000ul};
  src_.track(Segment::Global, m, "m", id, 1);
  const Address out = round_trip(&m);
  const Mixed& r = *reinterpret_cast<Mixed*>(out);
  EXPECT_EQ(r.flag, m.flag);
  EXPECT_EQ(r.letter, m.letter);
  EXPECT_EQ(r.small, m.small);
  EXPECT_EQ(r.medium, m.medium);
  EXPECT_EQ(r.big, m.big);
  EXPECT_EQ(r.f, m.f);
  EXPECT_EQ(r.d, m.d);
  EXPECT_EQ(r.ul, m.ul);
}

TEST_F(RoundTrip, DeepListDoesNotOverflowTheCallStack) {
  constexpr int kDepth = 200000;
  std::vector<Cell> cells(kDepth);
  for (int i = 0; i < kDepth; ++i) {
    cells[i].value = i;
    cells[i].next = (i + 1 < kDepth) ? &cells[i + 1] : nullptr;
    src_.track(Segment::Heap, cells[i], "", cell_type_, 1);
  }
  Cell* head = &cells[0];
  src_.track(Segment::Global, head, "head", table_.native(typeid(Cell*)) != 0
                                                ? table_.native(typeid(Cell*))
                                                : ti::native_type_id<Cell*>(table_),
             1);
  const Address out = round_trip(&head);
  Cell* walk = *reinterpret_cast<Cell**>(out);
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_NE(walk, nullptr) << "list truncated at " << i;
    ASSERT_EQ(walk->value, i);
    walk = walk->next;
  }
  EXPECT_EQ(walk, nullptr);
  EXPECT_EQ(collect_.counter("msrm.collect.blocks_saved"), kDepth + 1u);
}

TEST_F(RoundTrip, SharedTargetIsTransferredOnce) {
  Cell shared{42, nullptr};
  Cell* fans[8];
  for (auto& f : fans) f = &shared;
  src_.track(Segment::Heap, shared, "shared", cell_type_, 1);
  src_.track(Segment::Global, fans, "fans", ti::native_type_id<Cell*>(table_), 8);
  const Address out = round_trip(fans);
  Cell* const* restored = reinterpret_cast<Cell* const*>(out);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(restored[i], restored[0]);  // still shared
  EXPECT_EQ(restored[0]->value, 42);
  EXPECT_EQ(collect_.counter("msrm.collect.blocks_saved"), 2u);  // fans + shared, once each
  EXPECT_EQ(collect_.counter("msrm.collect.refs_saved"), 7u);    // seven duplicate guards hit
}

TEST_F(RoundTrip, SelfCycleIsClosed) {
  Cell loop{7, nullptr};
  loop.next = &loop;
  src_.track(Segment::Heap, loop, "loop", cell_type_, 1);
  Cell* entry = &loop;
  src_.track(Segment::Global, entry, "entry", ti::native_type_id<Cell*>(table_), 1);
  const Address out = round_trip(&entry);
  Cell* r = *reinterpret_cast<Cell**>(out);
  EXPECT_EQ(r->value, 7);
  EXPECT_EQ(r->next, r);
  EXPECT_EQ(collect_.counter("msrm.collect.refs_saved"), 1u);
}

TEST_F(RoundTrip, InteriorPointerKeepsItsElementOffset) {
  long arr[10];
  for (int i = 0; i < 10; ++i) arr[i] = i * 100;
  long* mid = &arr[6];
  src_.track(Segment::Global, arr, "arr", table_.primitive(xdr::PrimKind::Long), 10);
  src_.track(Segment::Global, mid, "mid", ti::native_type_id<long*>(table_), 1);

  // Collect both; mid must point at element 6 of the restored array.
  xdr::Encoder enc;
  Collector collector(src_, enc);
  collector.save_variable(reinterpret_cast<Address>(&mid));
  collector.save_variable(reinterpret_cast<Address>(arr));
  const Bytes bytes = enc.take();
  xdr::Decoder dec(bytes);
  Restorer restorer(dst_, dec);
  restorer.set_auto_bind(true);
  const BlockId mid_id = restorer.restore_variable();
  const BlockId arr_id = restorer.restore_variable();
  long** mid_out = reinterpret_cast<long**>(dst_.msrlt().find_id(mid_id)->base);
  long* arr_out = reinterpret_cast<long*>(dst_.msrlt().find_id(arr_id)->base);
  EXPECT_EQ(*mid_out, arr_out + 6);
  EXPECT_EQ(**mid_out, 600);
}

TEST_F(RoundTrip, SecondVariableBecomesAReference) {
  // The paper's first/last example: collecting `first` after the list was
  // already saved emits only the edge (a PREF), never the blocks again.
  Cell a{1, nullptr}, z{2, nullptr};
  a.next = &z;
  z.next = &a;
  src_.track(Segment::Heap, a, "a", cell_type_, 1);
  src_.track(Segment::Heap, z, "z", cell_type_, 1);
  Cell* first = &a;
  Cell* last = &z;
  src_.track(Segment::Global, first, "first", ti::native_type_id<Cell*>(table_), 1);
  src_.track(Segment::Global, last, "last", ti::native_type_id<Cell*>(table_), 1);

  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  xdr::Encoder enc;
  Collector collector(src_, enc);
  collector.save_variable(reinterpret_cast<Address>(&first));
  const std::size_t after_first = enc.size();
  collector.save_variable(reinterpret_cast<Address>(&last));
  const std::size_t after_last = enc.size();
  // `last` record: PNEW header of the variable block + one PREF. Far
  // smaller than the first record which carried both cells.
  EXPECT_LT(after_last - after_first, after_first);
  EXPECT_EQ(obs::Registry::process().snapshot().delta_since(before).counter(
                "msrm.collect.blocks_saved"),
            4u);

  const Bytes bytes = enc.take();
  xdr::Decoder dec(bytes);
  Restorer restorer(dst_, dec);
  restorer.set_auto_bind(true);
  const BlockId first_id = restorer.restore_variable();
  const BlockId last_id = restorer.restore_variable();
  Cell* rf = *reinterpret_cast<Cell**>(dst_.msrlt().find_id(first_id)->base);
  Cell* rl = *reinterpret_cast<Cell**>(dst_.msrlt().find_id(last_id)->base);
  EXPECT_EQ(rf->next, rl);
  EXPECT_EQ(rl->next, rf);
}

TEST_F(RoundTrip, NullPointersStayNull) {
  Cell lonely{5, nullptr};
  src_.track(Segment::Global, lonely, "lonely", cell_type_, 1);
  const Address out = round_trip(&lonely);
  const Cell& r = *reinterpret_cast<Cell*>(out);
  EXPECT_EQ(r.value, 5);
  EXPECT_EQ(r.next, nullptr);
  EXPECT_EQ(collect_.counter("msrm.collect.nulls_saved"), 1u);
}

TEST_F(RoundTrip, SavePointerMirrorsRestorePointer) {
  Cell c{11, nullptr};
  src_.track(Segment::Heap, c, "c", cell_type_, 1);
  Cell* p = &c;
  // Paper idiom: Save_pointer(p) at the source, p = Restore_pointer() at
  // the destination — no variable block for p itself.
  xdr::Encoder enc;
  Collector collector(src_, enc);
  collector.save_pointer(reinterpret_cast<Address>(&p));
  const Bytes bytes = enc.take();
  xdr::Decoder dec(bytes);
  Restorer restorer(dst_, dec);
  restorer.set_auto_bind(true);
  Cell* restored = reinterpret_cast<Cell*>(restorer.restore_pointer());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->value, 11);
}

TEST_F(RoundTrip, SaveVariableRejectsNonBaseAddresses) {
  long arr[4] = {};
  src_.track(Segment::Global, arr, "arr", table_.primitive(xdr::PrimKind::Long), 4);
  xdr::Encoder enc;
  Collector collector(src_, enc);
  EXPECT_THROW(collector.save_variable(reinterpret_cast<Address>(&arr[1])), MsrError);
  EXPECT_THROW(collector.save_variable(reinterpret_cast<Address>(&collector)), MsrError);
}

TEST_F(RoundTrip, DanglingPointerIsDetectedAtCollection) {
  Cell c{1, nullptr};
  int stray;
  c.next = reinterpret_cast<Cell*>(&stray);  // points into untracked memory
  src_.track(Segment::Global, c, "c", cell_type_, 1);
  xdr::Encoder enc;
  Collector collector(src_, enc);
  EXPECT_THROW(collector.save_variable(reinterpret_cast<Address>(&c)), MsrError);
}

/// --- wire-level failure injection ----------------------------------------

TEST_F(RoundTrip, CorruptTagIsRejected) {
  xdr::Encoder enc;
  enc.put_u8(0x55);  // not a PtrVal tag
  const Bytes bytes = enc.take();
  xdr::Decoder dec(bytes);
  Restorer restorer(dst_, dec);
  restorer.set_auto_bind(true);
  EXPECT_THROW(restorer.restore_pointer(), WireError);
}

TEST_F(RoundTrip, TruncatedStreamIsRejected) {
  Cell c{9, nullptr};
  src_.track(Segment::Global, c, "c", cell_type_, 1);
  xdr::Encoder enc;
  Collector collector(src_, enc);
  collector.save_variable(reinterpret_cast<Address>(&c));
  Bytes bytes = enc.take();
  bytes.resize(bytes.size() / 2);
  xdr::Decoder dec(bytes);
  Restorer restorer(dst_, dec);
  restorer.set_auto_bind(true);
  EXPECT_THROW(restorer.restore_variable(), WireError);
}

TEST_F(RoundTrip, RefToUntransferredBlockIsRejected) {
  xdr::Encoder enc;
  enc.put_u8(kPtrRef);
  enc.put_u64(msr::make_block_id(Segment::Heap, 123));
  enc.put_u64(0);
  const Bytes bytes = enc.take();
  xdr::Decoder dec(bytes);
  Restorer restorer(dst_, dec);
  EXPECT_THROW(restorer.restore_pointer(), WireError);
}

TEST_F(RoundTrip, BadSegmentTagIsRejected) {
  xdr::Encoder enc;
  enc.put_u8(kPtrNew);
  enc.put_u64(msr::make_block_id(Segment::Heap, 1));
  enc.put_u64(0);
  enc.put_u8(7);  // bogus segment
  enc.put_u32(table_.primitive(xdr::PrimKind::Int));
  enc.put_u32(1);
  const Bytes bytes = enc.take();
  xdr::Decoder dec(bytes);
  Restorer restorer(dst_, dec);
  restorer.set_auto_bind(true);
  EXPECT_THROW(restorer.restore_pointer(), WireError);
}

TEST_F(RoundTrip, UnknownTypeIdIsRejected) {
  xdr::Encoder enc;
  enc.put_u8(kPtrNew);
  enc.put_u64(msr::make_block_id(Segment::Heap, 1));
  enc.put_u64(0);
  enc.put_u8(2);      // heap
  enc.put_u32(9999);  // no such type
  enc.put_u32(1);
  const Bytes bytes = enc.take();
  xdr::Decoder dec(bytes);
  Restorer restorer(dst_, dec);
  restorer.set_auto_bind(true);
  EXPECT_THROW(restorer.restore_pointer(), TypeError);
}

TEST_F(RoundTrip, BoundBlockShapeMismatchIsRejected) {
  // Destination pre-binds a variable of one shape; the stream claims
  // another: restoration must refuse rather than corrupt memory.
  Cell c{1, nullptr};
  src_.track(Segment::Stack, c, "c", cell_type_, 1);
  xdr::Encoder enc;
  Collector collector(src_, enc);
  collector.save_variable(reinterpret_cast<Address>(&c));
  const Bytes bytes = enc.take();

  long wrong = 0;
  const BlockId dest_id =
      dst_.track(Segment::Stack, wrong, "c", table_.primitive(xdr::PrimKind::Long), 1);
  xdr::Decoder dec(bytes);
  Restorer restorer(dst_, dec);
  const BlockId src_id = src_.msrlt().find_containing(reinterpret_cast<Address>(&c))->id;
  EXPECT_THROW(restorer.bind(src_id, dest_id, cell_type_, 1), MsrError);
}

TEST_F(RoundTrip, HostilePnewCountIsRejectedBeforeAllocating) {
  // Whole-buffer restore: every leaf takes at least one stream byte, so a
  // count whose leaves outrun the bytes left is refused before any
  // storage exists — 2^32-1 cells (64 GiB) as much as 2^28 (4 GiB, which
  // an allocator would grant before the truncation showed).
  for (const std::uint32_t count : {0xFFFFFFFFu, 1u << 28}) {
    const Bytes bytes = cell_pnew(count);
    ASSERT_EQ(bytes.size(), 26u);
    xdr::Decoder dec(bytes);
    Restorer restorer(dst_, dec);
    EXPECT_THROW(restorer.restore_pointer(), WireError) << count;
    EXPECT_EQ(dst_.msrlt().block_count(), 0u) << count;
  }
}

TEST_F(RoundTrip, AllocationFailureIsAWireError) {
  // A streaming decoder cannot bound the count by the bytes left, so the
  // oversized block reaches the allocator; its std::bad_alloc must come
  // back as a typed WireError, with nothing registered.
  CappedSpace capped(dst_, 1u << 20);
  const Bytes bytes = cell_pnew(0xFFFFFFFFu);
  xdr::Decoder dec(bytes);
  dec.set_refill([](std::size_t) { return false; });
  Restorer restorer(capped, dec);
  EXPECT_THROW(restorer.restore_pointer(), WireError);
  EXPECT_EQ(dst_.msrlt().block_count(), 0u);
}

TEST_F(RoundTrip, ZeroCountPnewIsRejectedAndFreed) {
  // Zero cells fit any stream; the space allocates, registration refuses
  // the zero-sized block, and the storage goes back (LeakSanitizer
  // checks the asan build).
  const Bytes bytes = cell_pnew(0);
  xdr::Decoder dec(bytes);
  Restorer restorer(dst_, dec);
  EXPECT_THROW(restorer.restore_pointer(), Error);
  EXPECT_EQ(dst_.msrlt().block_count(), 0u);
}

TEST_F(RoundTrip, StreamSealDetectsCorruptionAndTruncation) {
  xdr::Encoder enc;
  write_header(enc, {"native", 42});
  enc.put_u32(0xABCD);
  finish_stream(enc);
  Bytes good = enc.take();
  EXPECT_NO_THROW(check_stream(good));

  Bytes flipped = good;
  flipped[8] ^= 0x01;
  EXPECT_THROW(check_stream(flipped), WireError);

  Bytes truncated(good.begin(), good.end() - 3);
  EXPECT_THROW(check_stream(truncated), WireError);

  Bytes tiny{1, 2, 3};
  EXPECT_THROW(check_stream(tiny), WireError);
}

/// Leaf digests of `payload` cut at `leaf`, computed leaf by leaf.
std::vector<std::uint64_t> leaf_digests(const Bytes& payload, std::size_t leaf) {
  std::vector<std::uint64_t> out;
  for (std::size_t off = 0; off < payload.size(); off += leaf) {
    const std::size_t len = std::min(leaf, payload.size() - off);
    out.push_back(StreamDigest::of(std::span<const std::uint8_t>(payload).subspan(off, len)));
  }
  return out;
}

TEST_F(RoundTrip, TrailerFromKnownLeavesMatchesTheOneShotSeal) {
  // The collect tap seals the stream from the digests it already took of
  // the flushed whole leaves plus the unflushed rest; every split must give
  // the bytes the one-shot finish_stream gives, for leaf sizes below,
  // around and above the 32-byte digest stripe and the stream itself.
  for (const std::uint32_t leaf : {1u, 7u, 32u, 33u, 100u, 4096u}) {
    SCOPED_TRACE("leaf " + std::to_string(leaf));
    xdr::Encoder whole;
    write_header(whole, {"native", 42, leaf});
    for (std::uint32_t i = 0; i < 100; ++i) whole.put_u32(i * 2654435761u);
    const Bytes payload = whole.bytes();
    const std::uint64_t root = finish_stream(whole);
    const Bytes sealed = whole.take();
    ASSERT_EQ(sealed.size(), payload.size() + kTrailerBytes);
    const std::vector<std::uint64_t> leaves = leaf_digests(payload, leaf);
    for (std::size_t known = 0; known * leaf <= payload.size(); known += 3) {
      xdr::Encoder enc;
      enc.put_bytes(payload.data(), payload.size());
      EXPECT_EQ(finish_stream(enc, std::span(leaves).first(known)), root) << "known " << known;
      EXPECT_EQ(enc.bytes(), sealed) << "known " << known;
    }
    // The trailer is the tag and the big-endian root: a StreamDigest over
    // the big-endian leaf digests.
    Bytes list;
    for (const std::uint64_t d : leaves) {
      for (int i = 0; i < 8; ++i) list.push_back(static_cast<std::uint8_t>(d >> (56 - 8 * i)));
    }
    EXPECT_EQ(root, StreamDigest::of(list));
    EXPECT_EQ(sealed[payload.size()], kTrailerTag);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(sealed[payload.size() + 1 + i], static_cast<std::uint8_t>(root >> (56 - 8 * i)));
    }
    EXPECT_EQ(check_stream(sealed, root).size(), payload.size());
    EXPECT_THROW(check_stream(sealed, root ^ 1u), WireError);
  }
}

TEST_F(RoundTrip, TheRootDependsOnTheLeafSizeAndResealMovesBetweenThem) {
  xdr::Encoder enc;
  write_header(enc, {"native", 42, 64});
  for (std::uint32_t i = 0; i < 300; ++i) enc.put_u32(i);
  finish_stream(enc);
  const Bytes at64 = enc.take();
  Bytes at100 = at64;
  reseal_stream(at100, 100);
  ASSERT_EQ(at100.size(), at64.size());
  EXPECT_NO_THROW(check_stream(at100));
  EXPECT_EQ(read_header(at100).leaf_bytes, 100u);
  // Only the header's leaf size and the trailer differ.
  const std::size_t body_from = 14;
  EXPECT_TRUE(std::equal(at64.begin() + body_from, at64.end() - kTrailerBytes,
                         at100.begin() + body_from));
  EXPECT_FALSE(std::equal(at64.end() - kTrailerBytes, at64.end(), at100.end() - kTrailerBytes));
  reseal_stream(at100, 64);
  EXPECT_EQ(at100, at64);
  Bytes damaged = at64;
  damaged[20] ^= 1;
  EXPECT_THROW(reseal_stream(damaged, 100), WireError);
}

/// A header with an arbitrary leaf-size field, and a stream sealed over it
/// as if that leaf size were legal.
Bytes stream_with_leaf_field(std::uint64_t leaf_field) {
  xdr::Encoder enc;
  write_header(enc, {"native", 42, 64});
  for (std::uint32_t i = 0; i < 32; ++i) enc.put_u32(i);
  finish_stream(enc);
  Bytes stream = enc.take();
  for (int i = 0; i < 8; ++i) {
    stream[6 + i] = static_cast<std::uint8_t>(leaf_field >> (56 - 8 * i));
  }
  return stream;
}

TEST_F(RoundTrip, HostileLeafSizesAreTypedErrors) {
  // A zero leaf size would divide by zero or loop forever; one above the
  // frame cap names a chunk no StateChunk can carry. Both are refused by
  // the header checks before any leaf is cut.
  for (const std::uint64_t leaf : {std::uint64_t{0}, std::uint64_t{kMaxLeafBytes} + 1,
                                   std::uint64_t{0xFFFFFFFFu}, std::uint64_t{1} << 32,
                                   ~std::uint64_t{0}}) {
    SCOPED_TRACE("leaf " + std::to_string(leaf));
    const Bytes stream = stream_with_leaf_field(leaf);
    EXPECT_THROW(check_stream(stream), WireError);
    EXPECT_THROW(check_stream(stream, 0), WireError);
    EXPECT_THROW(read_header(stream), WireError);
    xdr::Decoder dec(stream);
    EXPECT_THROW(read_header(dec), WireError);
    if (leaf <= 0xFFFFFFFFu) {
      const auto narrow = static_cast<std::uint32_t>(leaf);
      EXPECT_THROW(leaf_root(stream, narrow), WireError);
      xdr::Encoder enc;
      EXPECT_THROW(write_header(enc, {"native", 42, narrow}), WireError);
    }
  }
  EXPECT_NO_THROW(check_stream(stream_with_leaf_field(64)));
  xdr::Encoder enc;
  EXPECT_NO_THROW(write_header(enc, {"native", 42, kMaxLeafBytes}));
}

TEST_F(RoundTrip, AVersion3StreamIsRefusedByItsVersion) {
  // A stream as grammar v3 wrote it (a checkpoint from before v4): no leaf
  // size in the header, the trailer a one-piece digest of the payload.
  xdr::Encoder enc;
  enc.put_u32(kMagic);
  enc.put_u16(3);
  enc.put_string("native");
  enc.put_u64(42);
  for (std::uint32_t i = 0; i < 64; ++i) enc.put_u32(i);
  const std::uint64_t v3_seal = StreamDigest::of(enc.bytes());
  enc.put_u8(kTrailerTag);
  enc.put_u64(v3_seal);
  const Bytes v3 = enc.take();
  for (const auto& check : {+[](const Bytes& b) { check_stream(b); },
                            +[](const Bytes& b) {
                              xdr::Decoder dec(b);
                              read_header(dec);
                            }}) {
    try {
      check(v3);
      ADD_FAILURE() << "a v3 stream was accepted";
    } catch (const WireError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported stream version 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(RoundTrip, TheLeafSizeFieldKeepsPayloadWordsEightByteAligned) {
  // The dedup codec deltas 8-byte words counted from each chunk's start,
  // so a header whose length moved by other than a multiple of 8 against
  // v3's would misalign every double after it.
  for (const char* arch : {"", "native", "lp64-be-ieee754"}) {
    xdr::Encoder v3;
    v3.put_u32(kMagic);
    v3.put_u16(3);
    v3.put_string(arch);
    v3.put_u64(42);
    xdr::Encoder v4;
    write_header(v4, {arch, 42, 64});
    EXPECT_EQ((v4.size() - v3.size()) % 8, 0u) << arch;
  }
}

TEST_F(RoundTrip, EverySingleBitFlipFailsTheSeal) {
  // A 4 KiB stream: a flip in the header, the payload, the tag or the
  // stored digest must each fail check_stream with a WireError.
  xdr::Encoder enc;
  write_header(enc, {"native", 7});
  Rng rng(16);
  while (enc.size() < 4096 - kTrailerBytes) enc.put_u8(static_cast<std::uint8_t>(rng.next_u64()));
  finish_stream(enc);
  const Bytes good = enc.take();
  ASSERT_EQ(good.size(), 4096u);
  ASSERT_NO_THROW(check_stream(good));
  Bytes bad = good;
  for (std::size_t bit = 0; bit < bad.size() * 8; ++bit) {
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(check_stream(bad), WireError) << "bit " << bit;
    bad[bit / 8] = good[bit / 8];
  }
}

TEST_F(RoundTrip, AVersion2StreamIsATypedError) {
  // A stream as the previous format wrote it: header version 2 and the
  // 5-byte CRC-32 trailer. It must fail typed at the seal, and a decoder
  // that skipped the seal still refuses the version.
  xdr::Encoder enc;
  enc.put_u32(kMagic);
  enc.put_u16(2);
  enc.put_string("native");
  enc.put_u64(42);
  for (std::uint32_t i = 0; i < 64; ++i) enc.put_u32(i);
  const std::uint32_t crc = test::crc32_reference(enc.bytes().data(), enc.size());
  enc.put_u8(kTrailerTag);
  enc.put_u32(crc);
  const Bytes v2 = enc.take();
  EXPECT_THROW(check_stream(v2), WireError);
  xdr::Decoder dec(v2);
  EXPECT_THROW(read_header(dec), WireError);
}

TEST_F(RoundTrip, HeaderMagicAndVersionAreEnforced) {
  xdr::Encoder enc;
  enc.put_u32(0x12345678);
  xdr::Decoder dec(enc.bytes());
  EXPECT_THROW(read_header(dec), WireError);

  xdr::Encoder enc2;
  enc2.put_u32(kMagic);
  enc2.put_u16(99);
  xdr::Decoder dec2(enc2.bytes());
  EXPECT_THROW(read_header(dec2), WireError);
}


TEST(CanonicalStream, SharedGraphStreamIsPinned) {
  // Four roots into one seeded, heavily shared random graph; the fourth
  // is a duplicate entry point, so its whole record is a PREF. The
  // stream carries block ids and leaf ordinals, never addresses, so its
  // length and digest are fixed: any change to traversal order, the
  // duplicate guard or the encoding shows up here.
  ti::TypeTable table;
  apps::workload_register_types(table);
  mig::MigContext ctx(table);
  apps::RandNode*& r0 = ctx.global<apps::RandNode*>("r0");
  apps::RandNode*& r1 = ctx.global<apps::RandNode*>("r1");
  apps::RandNode*& r2 = ctx.global<apps::RandNode*>("r2");
  apps::RandNode*& r3 = ctx.global<apps::RandNode*>("r3");
  apps::GraphShape shape;
  shape.nodes = 2000;
  shape.edge_density = 0.9;
  shape.share_bias = 0.9;
  const auto nodes = apps::build_random_graph(ctx, 11, shape);
  r0 = nodes[0];
  r1 = nodes[nodes.size() / 3];
  r2 = nodes[(2 * nodes.size()) / 3];
  r3 = r0;

  xdr::Encoder enc;
  Collector collector(ctx.space(), enc);
  for (const auto* root : {&r0, &r1, &r2, &r3}) {
    collector.save_variable(reinterpret_cast<Address>(root));
  }
  const Bytes stream = enc.take();
  EXPECT_EQ(stream.size(), 117078u);
  EXPECT_EQ(StreamDigest::of(stream), 0x0BC4386532A48AFBull);
}

}  // namespace
}  // namespace hpm::msrm
