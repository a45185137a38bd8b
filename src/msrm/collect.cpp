#include "msrm/collect.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "msr/resolve.hpp"
#include "xdr/value.hpp"

namespace hpm::msrm {

namespace {

std::string hex_addr(msr::Address addr) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(addr));
  return buf;
}

}  // namespace

Collector::Collector(msr::MemorySpace& space, xdr::Encoder& enc)
    : space_(space),
      msrlt_(space.msrlt()),
      enc_(enc),
      leaves_(space),
      blocks_saved_(obs::Registry::process().counter("msrm.collect.blocks_saved")),
      refs_saved_(obs::Registry::process().counter("msrm.collect.refs_saved")),
      nulls_saved_(obs::Registry::process().counter("msrm.collect.nulls_saved")),
      prim_leaves_(obs::Registry::process().counter("msrm.collect.prim_leaves")),
      ptr_leaves_(obs::Registry::process().counter("msrm.collect.ptr_leaves")),
      bulk_bodies_(obs::Registry::process().counter("msrm.collect.bulk_bodies")),
      bulk_bytes_(obs::Registry::process().counter("msrm.collect.bulk_bytes")),
      depth_hist_(obs::Registry::process().histogram("msrm.collect.depth")) {
  msrlt_.begin_traversal();
}

void Collector::flush_instruments() noexcept {
  if (tally_blocks_ != 0) blocks_saved_.add(tally_blocks_);
  if (tally_refs_ != 0) refs_saved_.add(tally_refs_);
  if (tally_nulls_ != 0) nulls_saved_.add(tally_nulls_);
  if (tally_prim_ != 0) prim_leaves_.add(tally_prim_);
  if (tally_ptr_ != 0) ptr_leaves_.add(tally_ptr_);
  if (tally_bulk_bodies_ != 0) bulk_bodies_.add(tally_bulk_bodies_);
  if (tally_bulk_bytes_ != 0) bulk_bytes_.add(tally_bulk_bytes_);
  depth_hist_.record_batch(tally_depths_.data(), tally_depths_.size());
  tally_blocks_ = tally_refs_ = tally_nulls_ = 0;
  tally_prim_ = tally_ptr_ = tally_bulk_bodies_ = tally_bulk_bytes_ = 0;
  tally_depths_.clear();
}

void Collector::save_variable(msr::Address block_base) {
  const msr::MemoryBlock* block = msrlt_.find_containing(block_base);
  if (block == nullptr) {
    throw MsrError("save_variable: address " + hex_addr(block_base) +
                   " is not inside any tracked block");
  }
  if (block->base != block_base) {
    throw MsrError("save_variable: address " + hex_addr(block_base) + " lies inside block '" +
                   std::string(msrlt_.name_of(*block)) + "' [" + hex_addr(block->base) +
                   ", +" + std::to_string(block->size) + ") but is not its base");
  }
  encode_ptr_value(block_base);
  drain();
  flush_instruments();
}

void Collector::save_pointer(msr::Address cell_addr) {
  encode_ptr_value(space_.read_pointer(cell_addr));
  drain();
  flush_instruments();
}

void Collector::encode_ptr_value(msr::Address target) {
  if (target == 0) {
    enc_.put_u8(kPtrNull);
    ++tally_nulls_;
    return;
  }
  const msr::ResolvedPointer rp =
      msr::resolve_in(space_, msrlt_.find_containing(target), target);
  const msr::MemoryBlock* block = rp.block;
  if (!msrlt_.try_mark(*block)) {
    enc_.put_u8(kPtrRef);
    enc_.put_u64(block->id);
    enc_.put_u64(rp.leaf);
    ++tally_refs_;
    return;
  }
  enc_.put_u8(kPtrNew);
  enc_.put_u64(block->id);
  enc_.put_u64(rp.leaf);
  enc_.put_u8(static_cast<std::uint8_t>(block->segment));
  enc_.put_u32(block->type);
  enc_.put_u32(block->count);
  ++tally_blocks_;

  if (space_.types().bulk_eligible(block->type)) {
    encode_flat(*block);  // pure-XDR fast path, nothing to push
    return;
  }
  Pending p;
  p.block = block;
  p.leaf_list = &leaves_.of(block->type);
  p.elem_size = space_.layouts().of(block->type).size;
  p.elem_idx = 0;
  p.leaf_idx = 0;
  stack_.push_back(p);
  tally_depths_.push_back(static_cast<double>(stack_.size()));
}

void Collector::encode_flat(const msr::MemoryBlock& block) {
  // Bulk fast path: the block's raw source-layout image in one put_bytes.
  // The decoder memcpy's it under a matching data model and converts it
  // leaf-by-leaf (source-arch layout walk) otherwise.
  if (const std::uint8_t* raw = space_.raw_view(block.base, block.size)) {
    enc_.put_u8(kBodyRaw);
    enc_.put_u64(block.size);
    enc_.put_bytes(raw, block.size);
    ++tally_bulk_bodies_;
    tally_bulk_bytes_ += block.size;
    tally_prim_ += space_.leaves().count(block.type) * block.count;
    return;
  }
  enc_.put_u8(kBodyCanonical);
  const std::uint64_t elem_size = space_.layouts().of(block.type).size;
  for (std::uint32_t e = 0; e < block.count; ++e) {
    encode_flat_type(block.base + e * elem_size, block.type);
  }
}

void Collector::encode_flat_type(msr::Address base, ti::TypeId type) {
  const ti::TypeInfo& info = space_.types().at(type);
  switch (info.kind) {
    case ti::TypeKind::Primitive:
      xdr::encode_canonical(enc_, space_.read_prim(base, info.prim));
      ++tally_prim_;
      return;
    case ti::TypeKind::Pointer:
      throw MsrError("encode_flat_type reached a pointer (contains_pointer lied)");
    case ti::TypeKind::Array: {
      const std::uint64_t elem_size = space_.layouts().of(info.elem).size;
      for (std::uint32_t i = 0; i < info.count; ++i) {
        encode_flat_type(base + i * elem_size, info.elem);
      }
      return;
    }
    case ti::TypeKind::Struct: {
      const ti::TypeLayout& sl = space_.layouts().of(type);
      for (std::size_t i = 0; i < info.fields.size(); ++i) {
        encode_flat_type(base + sl.field_offsets[i], info.fields[i].type);
      }
      return;
    }
  }
}

void Collector::drain() {
  while (!stack_.empty()) {
    const std::size_t my_index = stack_.size() - 1;
    bool suspended = false;
    for (;;) {
      Pending cur = stack_[my_index];
      if (cur.elem_idx >= cur.block->count) break;  // this block is finished
      if (cur.leaf_idx >= cur.leaf_list->size()) {
        stack_[my_index].elem_idx = cur.elem_idx + 1;
        stack_[my_index].leaf_idx = 0;
        continue;
      }
      const ti::LeafRef& ref = (*cur.leaf_list)[cur.leaf_idx];
      const msr::Address cell =
          cur.block->base + cur.elem_idx * cur.elem_size + ref.byte_offset;
      stack_[my_index].leaf_idx = cur.leaf_idx + 1;
      if (!ref.is_pointer) {
        xdr::encode_canonical(enc_, space_.read_prim(cell, ref.prim));
        ++tally_prim_;
      } else {
        ++tally_ptr_;
        const msr::Address value = space_.read_pointer(cell);
        encode_ptr_value(value);
        if (stack_.size() > my_index + 1) {
          // A new block was pushed: descend (depth-first) before the rest
          // of this block's leaves.
          suspended = true;
          break;
        }
      }
    }
    if (!suspended) stack_.pop_back();
  }
}

}  // namespace hpm::msrm
