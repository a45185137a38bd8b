#include "memimg/image_space.hpp"

#include <utility>
#include "common/error.hpp"
#include "msr/resolve.hpp"

namespace hpm::memimg {

const std::uint8_t* ImageSpace::ptr(msr::Address addr, std::uint64_t need) const {
  if (addr < kBase || addr - kBase + need > arena_.size()) {
    throw MsrError("image address " + std::to_string(addr) + " out of bounds");
  }
  return arena_.data() + (addr - kBase);
}

std::uint8_t* ImageSpace::ptr(msr::Address addr, std::uint64_t need) {
  return const_cast<std::uint8_t*>(std::as_const(*this).ptr(addr, need));
}

xdr::PrimValue ImageSpace::read_prim(msr::Address addr, xdr::PrimKind k) const {
  return xdr::read_raw(ptr(addr, arch_->layout(k).size), *arch_, k);
}

void ImageSpace::write_prim(msr::Address addr, xdr::PrimKind k, const xdr::PrimValue& v) {
  xdr::write_raw(ptr(addr, arch_->layout(k).size), *arch_, k, v);
}

msr::Address ImageSpace::read_pointer(msr::Address addr) const {
  return xdr::read_pointer_cell(ptr(addr, arch_->pointer.size), *arch_);
}

void ImageSpace::write_pointer(msr::Address addr, msr::Address value) {
  xdr::write_pointer_cell(ptr(addr, arch_->pointer.size), *arch_, value);
}

msr::Address ImageSpace::allocate(std::uint64_t size) {
  // Keep every allocation aligned for the widest scalar of the model.
  const msr::Address base = ti::align_up(next_, 16);
  const msr::Address end = base + size;
  if (arch_->pointer.size < 8) {
    const std::uint64_t max_addr = (1ull << (arch_->pointer.size * 8)) - 1;
    if (end > max_addr) {
      throw ConversionError("image for " + arch_->name + " exhausted its " +
                            std::to_string(arch_->pointer.size * 8) +
                            "-bit address space");
    }
  }
  if (end - kBase > arena_.size()) {
    arena_.resize(static_cast<std::size_t>(end - kBase), 0);
  }
  next_ = end;
  return base;
}

msr::BlockId ImageSpace::create_block(msr::Segment seg, ti::TypeId type, std::uint32_t count,
                                      std::string_view name) {
  return new_block(seg, type, count, name).id;
}

xdr::PrimValue ImageSpace::read_leaf(msr::BlockId id, std::uint64_t ordinal) const {
  const msr::Address addr = msr::address_of(*this, msr::LogicalPointer{id, ordinal});
  const msr::MemoryBlock* block = msrlt_.find_id(id);
  const std::uint64_t per = leaves_.count(block->type);
  const ti::LeafRef ref = ti::leaf_at(leaves_, layouts_, block->type, ordinal % per);
  if (ref.is_pointer) {
    return xdr::PrimValue::of_unsigned(xdr::PrimKind::ULongLong, read_pointer(addr));
  }
  return read_prim(addr, ref.prim);
}

void ImageSpace::write_leaf(msr::BlockId id, std::uint64_t ordinal, const xdr::PrimValue& v) {
  const msr::Address addr = msr::address_of(*this, msr::LogicalPointer{id, ordinal});
  const msr::MemoryBlock* block = msrlt_.find_id(id);
  const std::uint64_t per = leaves_.count(block->type);
  const ti::LeafRef ref = ti::leaf_at(leaves_, layouts_, block->type, ordinal % per);
  if (ref.is_pointer) {
    write_pointer(addr, v.u);
    return;
  }
  write_prim(addr, ref.prim, v);
}

std::vector<std::uint8_t> ImageSpace::block_bytes(msr::BlockId id) const {
  const msr::MemoryBlock* block = msrlt_.find_id(id);
  if (block == nullptr) throw MsrError("block_bytes: unknown block id");
  const std::uint8_t* p = ptr(block->base, block->size);
  return std::vector<std::uint8_t>(p, p + block->size);
}

}  // namespace hpm::memimg
