#include "msr/host_space.hpp"

#include <algorithm>
#include <cstring>
#include <new>

namespace hpm::msr {

HostSpace::~HostSpace() {
  msrlt_.for_each_block([this](const MemoryBlock& block) {
    if (block.owned) deallocate(block.base);
  });
}

xdr::PrimValue HostSpace::read_prim(Address addr, xdr::PrimKind k) const {
  return xdr::read_raw(reinterpret_cast<const std::uint8_t*>(addr), arch(), k);
}

void HostSpace::write_prim(Address addr, xdr::PrimKind k, const xdr::PrimValue& v) {
  xdr::write_raw(reinterpret_cast<std::uint8_t*>(addr), arch(), k, v);
}

Address HostSpace::read_pointer(Address addr) const {
  // Host pointers are stored as real machine pointers; read them as such.
  void* value = nullptr;
  std::memcpy(&value, reinterpret_cast<const void*>(addr), sizeof(void*));
  return reinterpret_cast<Address>(value);
}

void HostSpace::write_pointer(Address addr, Address value) {
  void* p = reinterpret_cast<void*>(value);
  std::memcpy(reinterpret_cast<void*>(addr), &p, sizeof(void*));
}

Address HostSpace::allocate(std::uint64_t size) {
  // No zero-fill: restoration decodes every data leaf of the block, and
  // the migratable heap zeroes its own; padding bytes stay unspecified,
  // as in any locally constructed C object.
  return reinterpret_cast<Address>(::operator new(size, std::align_val_t{16}));
}

void HostSpace::deallocate(Address base) noexcept {
  ::operator delete(reinterpret_cast<void*>(base), std::align_val_t{16});
}

}  // namespace hpm::msr
