#include "msrm/restore.hpp"

#include <cstring>
#include <iterator>
#include <new>
#include <stdexcept>

#include "common/error.hpp"
#include "xdr/batch.hpp"
#include "xdr/value.hpp"

namespace hpm::msrm {

namespace {

/// Registry names of the Restorer's tallies, in Tally order.
constexpr const char* kTallyNames[] = {
    "msrm.restore.blocks_created",       "msrm.restore.blocks_bound",
    "msrm.restore.refs_resolved",        "msrm.restore.nulls_restored",
    "msrm.restore.prim_leaves",          "msrm.restore.ptr_leaves",
    "msrm.restore.bulk_bodies",          "msrm.restore.bulk_bytes",
    "msrm.restore.staged_runs",          "msrm.restore.staged_run_bytes",
    "msrm.restore.staged_scalar_leaves",
};

[[noreturn]] void throw_unallocatable(std::uint64_t bytes) {
  throw WireError("corrupt stream: PNEW block of " + std::to_string(bytes) +
                  " bytes cannot be allocated");
}

}  // namespace

Restorer::Restorer(msr::MemorySpace& space, xdr::Decoder& dec)
    : Restorer(space, dec, space.arch()) {}

Restorer::Restorer(msr::MemorySpace& space, xdr::Decoder& dec,
                   const xdr::ArchDescriptor& source_arch)
    : space_(space),
      dec_(dec),
      leaves_(space),
      src_arch_(&source_arch),
      src_layouts_(space.types(), source_arch),
      same_model_(source_arch.same_data_model(space.arch())),
      depth_hist_(obs::Registry::process().histogram("msrm.restore.depth")) {
  static_assert(std::size(kTallyNames) == kTallyCount);
  for (std::size_t i = 0; i < kTallyCount; ++i) {
    counters_[i] = &obs::Registry::process().counter(kTallyNames[i]);
  }
}

void Restorer::flush_instruments() noexcept {
  for (std::size_t i = 0; i < kTallyCount; ++i) {
    if (tally_[i] != 0) counters_[i]->add(tally_[i]);
  }
  tally_.fill(0);
  depth_hist_.record_batch(tally_depths_.data(), tally_depths_.size());
  tally_depths_.clear();
}

void Restorer::bind(msr::BlockId source_id, msr::BlockId dest_id, ti::TypeId type,
                    std::uint32_t count) {
  const msr::MemoryBlock* dest = space_.msrlt().find_id(dest_id);
  if (dest == nullptr) throw MsrError("bind: destination block does not exist");
  if (dest->type != type || dest->count != count) {
    throw MsrError("bind: destination block '" + std::string(space_.msrlt().name_of(*dest)) +
                   "' does not match the migrated variable's type/count");
  }
  if (source_id == msr::kInvalidBlock) throw MsrError("bind: invalid source id");
  if (!binding_.insert(source_id, dest)) throw MsrError("bind: source id already bound");
}

msr::BlockId Restorer::restore_variable() {
  const msr::Address addr = restore_pointer();
  if (addr == 0) throw WireError("variable record decoded to a null pointer");
  const msr::MemoryBlock* block = space_.msrlt().find_containing(addr);
  if (block == nullptr || block->base != addr) {
    throw WireError("variable record does not denote a block base");
  }
  return block->id;
}

msr::Address Restorer::restore_pointer() {
  const msr::Address addr = decode_ptr_value();
  drain();
  flush_instruments();
  return addr;
}

const msr::MemoryBlock& Restorer::materialize_pnew(msr::BlockId src_id, std::uint8_t segment,
                                                   ti::TypeId type, std::uint32_t count,
                                                   std::uint64_t per_elem,
                                                   std::uint64_t elem_size) {
  const auto seg = static_cast<msr::Segment>(segment);
  if (segment > 2) throw WireError("corrupt stream: bad segment tag");
  if (const msr::MemoryBlock* dest = binding_.find(src_id)) {
    if (dest->type != type || dest->count != count) {
      throw WireError("PNEW type/count disagrees with bound destination block '" +
                      std::string(space_.msrlt().name_of(*dest)) + "'");
    }
    ++tally_[kBlocksBound];
    return *dest;
  }
  if (src_id == msr::kInvalidBlock) throw WireError("corrupt stream: PNEW with invalid id");
  if (seg != msr::Segment::Heap && !auto_bind_) {
    throw MsrError("PNEW for unbound " + std::string(msr::segment_name(seg)) +
                   " block: the destination frame/global was not re-registered");
  }
  // Reject a block that could never be filled before allocating it: every
  // leaf takes at least one stream byte, so when the decoder holds the
  // whole stream its remaining bytes bound the element count. A streaming
  // decoder cannot know that bound; there an impossible size surfaces as
  // an allocation failure, mapped to the same typed error below.
  if (dec_.bounded() && per_elem != 0 && count > dec_.remaining() / per_elem) {
    throw WireError("corrupt stream: PNEW of " + std::to_string(count) +
                    " elements cannot fit in the " + std::to_string(dec_.remaining()) +
                    " bytes left");
  }
  if (elem_size != 0 && count > UINT64_MAX / elem_size) {
    throw WireError("corrupt stream: PNEW block size overflows");
  }
  const msr::MemoryBlock* dest = nullptr;
  try {
    dest = &space_.new_block(seg, type, count);
  } catch (const std::bad_alloc&) {
    throw_unallocatable(elem_size * count);
  } catch (const std::length_error&) {  // an arena space's vector growth
    throw_unallocatable(elem_size * count);
  }
  binding_.insert(src_id, dest);
  ++tally_[kBlocksCreated];
  return *dest;
}

msr::Address Restorer::decode_ptr_value() {
  const std::uint8_t tag = dec_.get_u8();
  switch (tag) {
    case kPtrNull:
      ++tally_[kNullsRestored];
      return 0;
    case kPtrRef: {
      const msr::BlockId src_id = dec_.get_u64();
      const std::uint64_t leaf = dec_.get_u64();
      const msr::MemoryBlock* dest = binding_.find(src_id);
      if (dest == nullptr) {
        throw WireError("PREF to a block that was never transferred (corrupt stream)");
      }
      ++tally_[kRefsResolved];
      return msr::address_of(space_, *dest, leaf);
    }
    case kPtrNew: {
      const msr::BlockId src_id = dec_.get_u64();
      const std::uint64_t leaf = dec_.get_u64();
      const std::uint8_t segment = dec_.get_u8();
      const ti::TypeId type = dec_.get_u32();
      const std::uint32_t count = dec_.get_u32();
      // One lookup each per PNEW: bulk_eligible validates the id against
      // the shared TI table; the leaf count and element size are passed
      // down to every check and address computation below.
      const bool bulk = space_.types().bulk_eligible(type);
      const std::uint64_t per_elem = space_.leaves().count(type);
      const std::uint64_t elem_size = space_.layouts().of(type).size;
      const msr::MemoryBlock& dest =
          materialize_pnew(src_id, segment, type, count, per_elem, elem_size);
      const msr::Address target = msr::address_of(space_, dest, leaf, per_elem, elem_size);
      if (bulk) {
        decode_flat(dest, per_elem, elem_size);
      } else {
        Pending p;
        p.block = &dest;
        p.leaf_list = &leaves_.of(type);
        p.elem_size = elem_size;
        p.elem_idx = 0;
        p.leaf_idx = 0;
        stack_.push_back(p);
        tally_depths_.push_back(static_cast<double>(stack_.size()));
      }
      return target;
    }
    default:
      throw WireError("corrupt stream: expected a pointer-value tag, got " +
                      std::to_string(tag));
  }
}

const std::vector<ti::LeafRef>& Restorer::src_leaves_of(ti::TypeId type) {
  const auto it = src_leaf_cache_.find(type);
  if (it != src_leaf_cache_.end()) return it->second;
  std::vector<ti::LeafRef> list;
  ti::for_each_leaf(space_.leaves(), src_layouts_, type,
                    [&list](const ti::LeafRef& ref) { list.push_back(ref); });
  return src_leaf_cache_.emplace(type, std::move(list)).first->second;
}

const Restorer::StagedPlan& Restorer::staged_plan_of(ti::TypeId type) {
  const auto it = staged_plans_.find(type);
  if (it != staged_plans_.end()) return it->second;

  // Fuse the per-element leaf walk into runs. A leaf joins a run when it
  // has the same width on both architectures (so its conversion is a pure
  // byte move / lane reverse), that width is a power of two the kernels
  // handle, it is not a Bool (write_prim normalizes those), and it abuts
  // the previous leaf in BOTH layouts. Copy-class runs (matching byte
  // orders, or 1-byte lanes) may mix widths; byteswap runs must keep one
  // lane width. Everything else stays on the scalar read_raw/write_prim
  // path, which keeps narrowing overflow detection.
  const std::vector<ti::LeafRef>& src_list = src_leaves_of(type);
  const std::vector<ti::LeafRef>& dst_list = leaves_.of(type);
  const bool order_differs = src_arch_->order != space_.arch().order;

  StagedPlan plan;
  for (std::uint32_t i = 0; i < src_list.size(); ++i) {
    const ti::LeafRef& src = src_list[i];
    const ti::LeafRef& dst = dst_list[i];
    const std::uint8_t w = src_arch_->layout(src.prim).size;
    const bool batchable = src.prim != xdr::PrimKind::Bool &&
                           w == space_.arch().layout(dst.prim).size &&
                           (w == 1 || w == 2 || w == 4 || w == 8);
    if (!batchable) {
      StagedOp op;
      op.first = i;
      plan.ops.push_back(op);
      ++plan.scalar_ops;
      continue;
    }
    const bool swap = order_differs && w > 1;
    StagedOp* prev = plan.ops.empty() ? nullptr : &plan.ops.back();
    const bool extends = prev != nullptr && prev->count > 0 && prev->swap == swap &&
                         (!swap || prev->width == w) &&
                         src.byte_offset == prev->src_off + prev->bytes &&
                         dst.byte_offset == prev->dst_off + prev->bytes;
    if (extends) {
      prev->count += 1;
      prev->bytes += w;
      plan.run_bytes += w;
      continue;
    }
    StagedOp op;
    op.first = i;
    op.count = 1;
    op.width = w;
    op.swap = swap;
    op.src_off = src.byte_offset;
    op.dst_off = dst.byte_offset;
    op.bytes = w;
    plan.ops.push_back(op);
    ++plan.run_ops;
    plan.run_bytes += w;
  }
  return staged_plans_.emplace(type, std::move(plan)).first->second;
}

void Restorer::decode_flat(const msr::MemoryBlock& block, std::uint64_t leaves_per_elem,
                           std::uint64_t elem_size) {
  const std::uint8_t body = dec_.get_u8();
  if (body == kBodyCanonical) {
    for (std::uint32_t e = 0; e < block.count; ++e) {
      decode_flat_type(block.base + e * elem_size, block.type);
    }
    return;
  }
  if (body != kBodyRaw) {
    throw WireError("corrupt stream: expected a flat-body tag, got " + std::to_string(body));
  }
  const std::uint64_t nbytes = dec_.get_u64();
  const std::uint64_t leaf_total = leaves_per_elem * block.count;
  if (same_model_) {
    // Same data model: the raw image IS the destination layout.
    if (nbytes != block.size) {
      throw WireError("raw body size disagrees with the destination block");
    }
    if (std::uint8_t* out = space_.raw_mut(block.base, block.size)) {
      dec_.get_bytes(out, block.size);
      ++tally_[kBulkBodies];
      tally_[kBulkBytes] += nbytes;
      tally_[kPrimLeaves] += leaf_total;
      return;
    }
  }
  // Heterogeneous source (or no contiguous destination storage): stage
  // the source image and convert leaf-by-leaf under the source layout.
  // Leaf enumeration order is arch-independent, so the source and
  // destination offset walks zip ordinal-for-ordinal.
  const std::uint64_t src_elem = src_layouts_.of(block.type).size;
  if (nbytes != src_elem * block.count) {
    throw WireError("raw body size disagrees with the source layout");
  }
  raw_buf_.resize(nbytes);
  dec_.get_bytes(raw_buf_.data(), nbytes);
  const std::vector<ti::LeafRef>& src_list = src_leaves_of(block.type);
  const std::vector<ti::LeafRef>& dst_list = leaves_.of(block.type);
  std::uint8_t* raw_out = space_.raw_mut(block.base, block.size);
  if (raw_out != nullptr) {
    // Batched conversion: replay the fused per-element plan, one memcpy /
    // byteswap sweep per run instead of one scalar round trip per leaf.
    const StagedPlan& plan = staged_plan_of(block.type);
    for (std::uint32_t e = 0; e < block.count; ++e) {
      const std::uint8_t* in = raw_buf_.data() + e * src_elem;
      std::uint8_t* out = raw_out + e * elem_size;
      for (const StagedOp& op : plan.ops) {
        if (op.count == 0) {
          space_.write_prim(block.base + e * elem_size + dst_list[op.first].byte_offset,
                            dst_list[op.first].prim,
                            xdr::read_raw(in + src_list[op.first].byte_offset, *src_arch_,
                                          src_list[op.first].prim));
        } else if (!op.swap) {
          std::memcpy(out + op.dst_off, in + op.src_off, op.bytes);
        } else {
          xdr::bswap_run(out + op.dst_off, in + op.src_off, op.count, op.width);
        }
      }
    }
    tally_[kStagedRuns] += std::uint64_t{plan.run_ops} * block.count;
    tally_[kStagedRunBytes] += plan.run_bytes * block.count;
    tally_[kStagedScalar] += std::uint64_t{plan.scalar_ops} * block.count;
  } else {
    // No contiguous destination storage: scalar conversion per leaf.
    for (std::uint32_t e = 0; e < block.count; ++e) {
      const std::uint8_t* in = raw_buf_.data() + e * src_elem;
      const msr::Address out = block.base + e * elem_size;
      for (std::size_t i = 0; i < src_list.size(); ++i) {
        space_.write_prim(out + dst_list[i].byte_offset, dst_list[i].prim,
                          xdr::read_raw(in + src_list[i].byte_offset, *src_arch_,
                                        src_list[i].prim));
      }
    }
    tally_[kStagedScalar] += leaf_total;
  }
  tally_[kPrimLeaves] += leaf_total;
}

void Restorer::decode_flat_type(msr::Address base, ti::TypeId type) {
  const ti::TypeInfo& info = space_.types().at(type);
  switch (info.kind) {
    case ti::TypeKind::Primitive:
      space_.write_prim(base, info.prim, xdr::decode_canonical(dec_, info.prim));
      ++tally_[kPrimLeaves];
      return;
    case ti::TypeKind::Pointer:
      throw MsrError("decode_flat_type reached a pointer (contains_pointer lied)");
    case ti::TypeKind::Array: {
      const std::uint64_t elem_size = space_.layouts().of(info.elem).size;
      for (std::uint32_t i = 0; i < info.count; ++i) {
        decode_flat_type(base + i * elem_size, info.elem);
      }
      return;
    }
    case ti::TypeKind::Struct: {
      const ti::TypeLayout& sl = space_.layouts().of(type);
      for (std::size_t i = 0; i < info.fields.size(); ++i) {
        decode_flat_type(base + sl.field_offsets[i], info.fields[i].type);
      }
      return;
    }
  }
}

void Restorer::drain() {
  while (!stack_.empty()) {
    const std::size_t my_index = stack_.size() - 1;
    bool suspended = false;
    for (;;) {
      Pending cur = stack_[my_index];
      if (cur.elem_idx >= cur.block->count) break;
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
        space_.write_prim(cell, ref.prim, xdr::decode_canonical(dec_, ref.prim));
        ++tally_[kPrimLeaves];
      } else {
        ++tally_[kPtrLeaves];
        const msr::Address value = decode_ptr_value();
        space_.write_pointer(cell, value);
        if (stack_.size() > my_index + 1) {
          suspended = true;
          break;
        }
      }
    }
    if (!suspended) stack_.pop_back();
  }
}

}  // namespace hpm::msrm
