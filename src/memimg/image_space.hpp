// ImageSpace: a byte-exact simulation of a foreign architecture's process
// memory.
//
// This is the substitution for the paper's second physical machine: blocks
// live in an arena of raw bytes laid out under an arbitrary
// ArchDescriptor — SPARC big-endian 32-bit, MIPS little-endian, i386 with
// 4-byte double alignment, ... Pointer cells are stored at that
// architecture's pointer width and byte order and hold *image addresses*
// (arena offsets). Restoring a migration stream INTO an image and
// collecting it back OUT therefore exercises every conversion a real
// cross-machine migration exercises — verifiable bit-for-bit on one host.
#pragma once

#include <vector>

#include "msr/space.hpp"

namespace hpm::memimg {

class ImageSpace final : public msr::MemorySpace {
 public:
  ImageSpace(const ti::TypeTable& types, const xdr::ArchDescriptor& arch)
      : types_(&types), arch_(&arch), layouts_(types, arch), leaves_(types) {}

  const xdr::ArchDescriptor& arch() const noexcept override { return *arch_; }
  const ti::TypeTable& types() const noexcept override { return *types_; }
  const ti::LayoutMap& layouts() const noexcept override { return layouts_; }
  const ti::LeafIndex& leaves() const noexcept override { return leaves_; }
  msr::Msrlt& msrlt() noexcept override { return msrlt_; }
  const msr::Msrlt& msrlt() const noexcept override { return msrlt_; }

  xdr::PrimValue read_prim(msr::Address addr, xdr::PrimKind k) const override;
  void write_prim(msr::Address addr, xdr::PrimKind k, const xdr::PrimValue& v) override;
  msr::Address read_pointer(msr::Address addr) const override;
  void write_pointer(msr::Address addr, msr::Address value) override;

  /// Arena bytes ARE the foreign machine's raw storage; bounds-checked,
  /// declining (nullptr) rather than throwing on a bad range. The
  /// returned pointer is invalidated by the next allocate() — bulk
  /// copies must take it immediately before the memcpy.
  const std::uint8_t* raw_view(msr::Address addr, std::uint64_t len) const noexcept override {
    if (addr < kBase || addr - kBase + len > arena_.size()) return nullptr;
    return arena_.data() + (addr - kBase);
  }
  std::uint8_t* raw_mut(msr::Address addr, std::uint64_t len) noexcept override {
    if (addr < kBase || addr - kBase + len > arena_.size()) return nullptr;
    return arena_.data() + (addr - kBase);
  }

  /// Bump allocation from the arena. Throws hpm::ConversionError when the
  /// image outgrows the architecture's pointer width (a real ILP32
  /// machine would be out of address space too).
  msr::Address allocate(std::uint64_t size) override;

  /// Convenience: new_block() returning the id (tests and the
  /// heterogeneity benchmarks create image-resident variables this way).
  msr::BlockId create_block(msr::Segment seg, ti::TypeId type, std::uint32_t count,
                            std::string_view name);

  /// Read/write one leaf of a block by (id, ordinal) — the verification
  /// interface used to compare images across architectures.
  xdr::PrimValue read_leaf(msr::BlockId id, std::uint64_t ordinal) const;
  void write_leaf(msr::BlockId id, std::uint64_t ordinal, const xdr::PrimValue& v);

  /// Raw bytes of a block (endianness/layout inspection in tests).
  std::vector<std::uint8_t> block_bytes(msr::BlockId id) const;

  [[nodiscard]] std::uint64_t bytes_in_use() const noexcept { return next_ - kBase; }

 private:
  /// Image addresses start above 0 so that 0 stays the null pointer.
  static constexpr msr::Address kBase = 0x1000;

  const std::uint8_t* ptr(msr::Address addr, std::uint64_t need) const;
  std::uint8_t* ptr(msr::Address addr, std::uint64_t need);

  const ti::TypeTable* types_;
  const xdr::ArchDescriptor* arch_;
  ti::LayoutMap layouts_;
  ti::LeafIndex leaves_;
  msr::Msrlt msrlt_;
  std::vector<std::uint8_t> arena_;
  msr::Address next_ = kBase;
};

}  // namespace hpm::memimg
