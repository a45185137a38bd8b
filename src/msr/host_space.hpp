// HostSpace: the real memory of this process as a MemorySpace.
//
// Addresses are uintptr_t values of live objects; reads and writes go
// straight to memory using the native architecture descriptor (which
// mirrors the compiler's own layout, validated at registration time by
// ti::StructBuilder::commit).
//
// Storage the space allocates for new_block() is recorded only by the
// `owned` bit of its MSRLT entry: the destructor frees every owned block
// still tracked, and whoever unregisters an owned block earlier (e.g.
// MigContext::heap_free) calls deallocate() for it.
#pragma once

#include <memory>

#include "msr/space.hpp"

namespace hpm::msr {

class HostSpace final : public MemorySpace {
 public:
  explicit HostSpace(const ti::TypeTable& types)
      : types_(&types), layouts_(types, xdr::native_arch()), leaves_(types) {}

  ~HostSpace() override;

  HostSpace(const HostSpace&) = delete;
  HostSpace& operator=(const HostSpace&) = delete;

  const xdr::ArchDescriptor& arch() const noexcept override { return xdr::native_arch(); }
  const ti::TypeTable& types() const noexcept override { return *types_; }
  const ti::LayoutMap& layouts() const noexcept override { return layouts_; }
  const ti::LeafIndex& leaves() const noexcept override { return leaves_; }
  Msrlt& msrlt() noexcept override { return msrlt_; }
  const Msrlt& msrlt() const noexcept override { return msrlt_; }

  xdr::PrimValue read_prim(Address addr, xdr::PrimKind k) const override;
  void write_prim(Address addr, xdr::PrimKind k, const xdr::PrimValue& v) override;
  Address read_pointer(Address addr) const override;
  void write_pointer(Address addr, Address value) override;

  /// Host memory is already contiguous raw storage in native layout.
  const std::uint8_t* raw_view(Address addr, std::uint64_t) const noexcept override {
    return reinterpret_cast<const std::uint8_t*>(addr);
  }
  std::uint8_t* raw_mut(Address addr, std::uint64_t) noexcept override {
    return reinterpret_cast<std::uint8_t*>(addr);
  }

  Address allocate(std::uint64_t size) override;
  void deallocate(Address base) noexcept override;

  /// Track an existing host object. Returns its new block id.
  template <typename T>
  BlockId track(Segment seg, T& obj, std::string_view name, ti::TypeId type,
                std::uint32_t count = 1) {
    return msrlt_.register_block(seg, reinterpret_cast<Address>(&obj),
                                 block_size(type, count), type, count, name);
  }

  /// Track raw storage the caller owns (arrays, external buffers).
  BlockId track_raw(Segment seg, void* base, ti::TypeId type, std::uint32_t count,
                    std::string_view name) {
    return msrlt_.register_block(seg, reinterpret_cast<Address>(base),
                                 block_size(type, count), type, count, name);
  }

 private:
  const ti::TypeTable* types_;
  ti::LayoutMap layouts_;
  ti::LeafIndex leaves_;
  Msrlt msrlt_;
};

}  // namespace hpm::msr
