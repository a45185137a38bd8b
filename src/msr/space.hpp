// MemorySpace: one process memory space the MSR machinery can operate on.
//
// The collection/restoration engine (src/msrm) is written against this
// interface so the *same* depth-first traversal serves two concrete
// spaces: HostSpace (the real memory of this process, native layout) and
// memimg::ImageSpace (a byte-exact simulation of a foreign architecture's
// memory). That guarantee — one engine, two layouts — is how the library
// demonstrates heterogeneous migration on a single physical machine.
#pragma once

#include "msr/block.hpp"
#include "msr/msrlt.hpp"
#include "ti/layout.hpp"
#include "ti/leaf.hpp"
#include "ti/table.hpp"
#include "xdr/arch.hpp"
#include "xdr/value.hpp"

namespace hpm::msr {

class MemorySpace {
 public:
  virtual ~MemorySpace() = default;

  /// Data model of this space.
  virtual const xdr::ArchDescriptor& arch() const noexcept = 0;

  /// Shared type table (source and destination must agree; enforced via
  /// the stream signature).
  virtual const ti::TypeTable& types() const noexcept = 0;

  /// Layouts of types under this space's architecture.
  virtual const ti::LayoutMap& layouts() const noexcept = 0;

  /// Leaf counts (arch independent, but kept per space for locality).
  virtual const ti::LeafIndex& leaves() const noexcept = 0;

  virtual Msrlt& msrlt() noexcept = 0;
  virtual const Msrlt& msrlt() const noexcept = 0;

  /// --- leaf cell access --------------------------------------------------
  virtual xdr::PrimValue read_prim(Address addr, xdr::PrimKind k) const = 0;
  virtual void write_prim(Address addr, xdr::PrimKind k, const xdr::PrimValue& v) = 0;

  /// Read/write a pointer cell as a space address (0 = null).
  virtual Address read_pointer(Address addr) const = 0;
  virtual void write_pointer(Address addr, Address value) = 0;

  /// --- bulk fast path ------------------------------------------------------
  /// Borrow `len` contiguous raw bytes at `addr` (this space's layout).
  /// Spaces that cannot expose contiguous storage return nullptr and the
  /// caller falls back to per-leaf access. The default declines.
  virtual const std::uint8_t* raw_view(Address addr, std::uint64_t len) const noexcept {
    (void)addr;
    (void)len;
    return nullptr;
  }
  virtual std::uint8_t* raw_mut(Address addr, std::uint64_t len) noexcept {
    (void)addr;
    (void)len;
    return nullptr;
  }

  /// --- restoration support ------------------------------------------------
  /// Obtain `size` bytes of fresh, uninitialized storage in this space
  /// (not yet registered in the MSRLT). Prefer new_block(), which
  /// registers it and hands its release to the space.
  virtual Address allocate(std::uint64_t size) = 0;

  /// Return storage obtained from allocate(). Spaces whose storage is an
  /// arena released as a whole ignore it (the default).
  virtual void deallocate(Address base) noexcept { (void)base; }

  /// Allocate storage for `count` elements of `type` and register it
  /// under a fresh id in `seg`, marked owned: the space releases it when
  /// the space itself goes away (or earlier through deallocate(), once
  /// the caller unregisters the block). Storage whose registration throws
  /// is released before the exception propagates.
  const MemoryBlock& new_block(Segment seg, ti::TypeId type, std::uint32_t count,
                               std::string_view name = {}) {
    const std::uint64_t size = block_size(type, count);
    const Address base = allocate(size);
    try {
      return msrlt().add(seg, base, size, type, count, name, /*owned=*/true);
    } catch (...) {
      deallocate(base);
      throw;
    }
  }

  /// Total bytes of one block of `count` elements of `type` in this space.
  std::uint64_t block_size(ti::TypeId type, std::uint32_t count) const {
    return layouts().of(type).size * count;
  }
};

}  // namespace hpm::msr
