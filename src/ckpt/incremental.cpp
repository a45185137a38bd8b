#include "ckpt/incremental.hpp"

#include <cstdio>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/digest.hpp"
#include "common/endian.hpp"
#include "msrm/stream.hpp"
#include "ti/leaf.hpp"
#include "xdr/value.hpp"

namespace hpm::ckpt {

namespace {

constexpr std::uint32_t kMagic = 0x48434B49;  // "HCKI"
constexpr std::uint16_t kVersion = 2;  // v1 carried the CRC-32 stream trailer

/// A chain file's trailer: msrm's trailer tag and the StreamDigest of
/// every byte before it. (Chain files are not migration streams and keep
/// the one-piece seal streams had up to grammar v3.)
void seal_file(xdr::Encoder& enc) {
  const std::uint64_t digest = StreamDigest::of(enc.bytes());
  enc.put_u8(msrm::kTrailerTag);
  enc.put_u64(digest);
}

/// Check a chain file's trailer and return the bytes it seals; throws
/// hpm::WireError on damage or truncation.
std::span<const std::uint8_t> check_file(std::span<const std::uint8_t> file) {
  if (file.size() < msrm::kTrailerBytes) {
    throw WireError("checkpoint file too short to be sealed");
  }
  const std::size_t body = file.size() - msrm::kTrailerBytes;
  if (file[body] != msrm::kTrailerTag ||
      get_u64_be(file.data() + body + 1) != StreamDigest::of(file.first(body))) {
    throw WireError("checkpoint file seal mismatch: file damaged or truncated");
  }
  return file.first(body);
}

Bytes read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw Error("cannot open incremental checkpoint: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  Bytes data(static_cast<std::size_t>(size));
  const std::size_t got = std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (got != data.size()) throw Error("short read: " + path);
  return data;
}

void write_file(const std::string& path, const Bytes& data) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw Error("cannot create: " + tmp);
  const std::size_t put = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (put != data.size() || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("cannot write: " + path);
  }
}

std::string chain_path(const std::string& prefix, std::uint64_t seq) {
  return prefix + "." + std::to_string(seq);
}

/// Shallow (non-traversing) content encoding of one block: primitives
/// canonical, pointer cells as PNULL / PREF(id, leaf).
void shallow_encode_type(const msr::MemorySpace& space, msr::Address base, ti::TypeId type,
                         xdr::Encoder& enc) {
  const ti::TypeInfo& info = space.types().at(type);
  switch (info.kind) {
    case ti::TypeKind::Primitive:
      xdr::encode_canonical(enc, space.read_prim(base, info.prim));
      return;
    case ti::TypeKind::Pointer: {
      const msr::Address value = space.read_pointer(base);
      if (value == 0) {
        enc.put_u8(msrm::kPtrNull);
      } else {
        const msr::LogicalPointer lp = msr::resolve_pointer(space, value);
        enc.put_u8(msrm::kPtrRef);
        enc.put_u64(lp.block);
        enc.put_u64(lp.leaf);
      }
      return;
    }
    case ti::TypeKind::Array: {
      const std::uint64_t elem_size = space.layouts().of(info.elem).size;
      for (std::uint32_t i = 0; i < info.count; ++i) {
        shallow_encode_type(space, base + i * elem_size, info.elem, enc);
      }
      return;
    }
    case ti::TypeKind::Struct: {
      const ti::TypeLayout& sl = space.layouts().of(type);
      for (std::size_t i = 0; i < info.fields.size(); ++i) {
        shallow_encode_type(space, base + sl.field_offsets[i], info.fields[i].type, enc);
      }
      return;
    }
  }
}

Bytes shallow_encode_block(const msr::MemorySpace& space, const msr::MemoryBlock& block) {
  xdr::Encoder enc(block.size + 16);
  const std::uint64_t elem_size = space.layouts().of(block.type).size;
  for (std::uint32_t e = 0; e < block.count; ++e) {
    shallow_encode_type(space, block.base + e * elem_size, block.type, enc);
  }
  return enc.take();
}

struct BlockImage {
  std::uint8_t seg = 2;
  ti::TypeId type = ti::kInvalidType;
  std::uint32_t count = 1;
  Bytes content;
};

struct Chain {
  ti::TypeTable table;
  std::string arch;
  std::uint64_t signature = 0;
  msrm::ExecutionState exec;
  std::map<msr::BlockId, BlockImage> blocks;
};

Chain load_chain(const std::string& prefix, std::uint64_t last_seq) {
  Chain chain;
  for (std::uint64_t seq = 0; seq <= last_seq; ++seq) {
    const Bytes file = read_file(chain_path(prefix, seq));
    const auto payload = check_file(file);
    xdr::Decoder dec(payload);
    if (dec.get_u32() != kMagic) throw WireError("not an incremental checkpoint file");
    if (dec.get_u16() != kVersion) throw WireError("unsupported incremental version");
    const std::uint64_t file_seq = dec.get_u64();
    if (file_seq != seq) {
      throw WireError("checkpoint chain out of order: expected seq " + std::to_string(seq) +
                      ", file says " + std::to_string(file_seq));
    }
    chain.arch = dec.get_string();
    chain.signature = dec.get_u64();
    chain.table = ti::TypeTable::decode(dec);
    if (chain.table.signature() != chain.signature) {
      throw WireError("incremental checkpoint type table corrupt");
    }
    chain.exec = msrm::ExecutionState::decode(dec);
    const std::uint32_t n_freed = dec.get_u32();
    for (std::uint32_t i = 0; i < n_freed; ++i) chain.blocks.erase(dec.get_u64());
    const std::uint32_t n_blocks = dec.get_u32();
    for (std::uint32_t i = 0; i < n_blocks; ++i) {
      const msr::BlockId id = dec.get_u64();
      BlockImage image;
      image.seg = dec.get_u8();
      image.type = dec.get_u32();
      image.count = dec.get_u32();
      const std::uint32_t len = dec.get_u32();
      image.content.resize(len);
      dec.get_bytes(image.content.data(), len);
      chain.blocks[id] = std::move(image);
    }
    if (!dec.at_end()) throw WireError("trailing bytes in incremental checkpoint");
  }
  return chain;
}

/// Emit the standard migration-stream data section by DFS over the merged
/// block images (explicit stack; bit-for-bit re-encoding of leaves).
class Synthesizer {
 public:
  Synthesizer(const Chain& chain, xdr::Encoder& enc)
      : chain_(chain), enc_(enc), leaves_(chain.table) {}

  /// One variable record: a pointer-value for (block, leaf 0).
  void emit_variable(msr::BlockId id) { emit_target(id, 0); drain(); }

 private:
  struct Pending {
    msr::BlockId id;
    const BlockImage* image;
    const std::vector<ti::LeafRef>* leaf_list;  // null => pointer-free verbatim copy
    std::uint32_t elem_idx = 0;
    std::uint64_t leaf_idx = 0;
    std::size_t content_pos = 0;  // decode cursor into image->content
  };

  const std::vector<ti::LeafRef>& leaf_list_of(ti::TypeId type) {
    const auto it = leaf_cache_.find(type);
    if (it != leaf_cache_.end()) return it->second;
    std::vector<ti::LeafRef> list;
    ti::for_each_leaf(leaves_, layouts_, type,
                      [&list](const ti::LeafRef& ref) { list.push_back(ref); });
    return leaf_cache_.emplace(type, std::move(list)).first->second;
  }

  void emit_target(msr::BlockId id, std::uint64_t leaf) {
    const auto bit = chain_.blocks.find(id);
    if (bit == chain_.blocks.end()) {
      throw WireError("incremental chain references missing block id " + std::to_string(id));
    }
    if (!visited_.insert(id).second) {
      enc_.put_u8(msrm::kPtrRef);
      enc_.put_u64(id);
      enc_.put_u64(leaf);
      return;
    }
    const BlockImage& image = bit->second;
    enc_.put_u8(msrm::kPtrNew);
    enc_.put_u64(id);
    enc_.put_u64(leaf);
    enc_.put_u8(image.seg);
    enc_.put_u32(image.type);
    enc_.put_u32(image.count);
    if (!chain_.table.contains_pointer(image.type)) {
      // Pointer-free (= bulk-eligible on the wire): the flat content IS
      // the canonical body, verbatim, behind the v2 flat-body tag.
      enc_.put_u8(msrm::kBodyCanonical);
      enc_.put_bytes(image.content.data(), image.content.size());
      return;
    }
    Pending p;
    p.id = id;
    p.image = &image;
    p.leaf_list = &leaf_list_of(image.type);
    stack_.push_back(p);
  }

  void drain() {
    while (!stack_.empty()) {
      const std::size_t my_index = stack_.size() - 1;
      bool suspended = false;
      for (;;) {
        Pending cur = stack_[my_index];
        if (cur.elem_idx >= cur.image->count) break;
        if (cur.leaf_idx >= cur.leaf_list->size()) {
          stack_[my_index].elem_idx = cur.elem_idx + 1;
          stack_[my_index].leaf_idx = 0;
          continue;
        }
        const ti::LeafRef& ref = (*cur.leaf_list)[cur.leaf_idx];
        xdr::Decoder content(cur.image->content.data() + cur.content_pos,
                             cur.image->content.size() - cur.content_pos);
        if (!ref.is_pointer) {
          xdr::encode_canonical(enc_, xdr::decode_canonical(content, ref.prim));
          stack_[my_index].content_pos = cur.content_pos + content.position();
          stack_[my_index].leaf_idx = cur.leaf_idx + 1;
          continue;
        }
        // Pointer leaf: read the flat tag, then emit standard grammar.
        const std::uint8_t tag = content.get_u8();
        msr::BlockId target_id = 0;
        std::uint64_t target_leaf = 0;
        if (tag == msrm::kPtrRef) {
          target_id = content.get_u64();
          target_leaf = content.get_u64();
        } else if (tag != msrm::kPtrNull) {
          throw WireError("corrupt flat content: bad pointer tag");
        }
        stack_[my_index].content_pos = cur.content_pos + content.position();
        stack_[my_index].leaf_idx = cur.leaf_idx + 1;
        if (tag == msrm::kPtrNull) {
          enc_.put_u8(msrm::kPtrNull);
        } else {
          emit_target(target_id, target_leaf);
          if (stack_.size() > my_index + 1) {
            suspended = true;
            break;
          }
        }
      }
      if (!suspended) stack_.pop_back();
    }
  }

  const Chain& chain_;
  xdr::Encoder& enc_;
  ti::LayoutMap layouts_{chain_.table, xdr::native_arch()};
  ti::LeafIndex leaves_;
  std::unordered_map<ti::TypeId, std::vector<ti::LeafRef>> leaf_cache_;
  std::set<msr::BlockId> visited_;
  std::vector<Pending> stack_;
};

Bytes synthesize(const Chain& chain) {
  xdr::Encoder enc(1 << 16);
  msrm::write_header(enc, {chain.arch, chain.signature});
  chain.table.encode(enc);
  chain.exec.encode(enc);
  Synthesizer synth(chain, enc);
  for (std::size_t i = chain.exec.frames.size(); i-- > 0;) {
    for (const msrm::SavedVar& var : chain.exec.frames[i].vars) {
      synth.emit_variable(var.source_block);
    }
  }
  for (const msrm::SavedVar& var : chain.exec.globals) {
    synth.emit_variable(var.source_block);
  }
  msrm::finish_stream(enc);
  return enc.take();
}

}  // namespace

IncrementalStats IncrementalCheckpointer::capture(mig::MigContext& ctx) {
  msr::HostSpace& space = ctx.space();
  IncrementalStats stats;
  stats.sequence = next_seq_;

  xdr::Encoder enc(1 << 16);
  enc.put_u32(kMagic);
  enc.put_u16(kVersion);
  enc.put_u64(next_seq_);
  enc.put_string(space.arch().name);
  enc.put_u64(ctx.types().signature());
  ctx.types().encode(enc);
  ctx.snapshot_execution_state().encode(enc);

  // Diff the tracked block set against the previous capture.
  struct ChangedBlock {
    const msr::MemoryBlock* block;
    Bytes content;
  };
  std::unordered_map<msr::BlockId, std::uint64_t> current;
  std::vector<ChangedBlock> changed;
  space.msrlt().for_each_block([&](const msr::MemoryBlock& block) {
    Bytes content = shallow_encode_block(space, block);
    const std::uint64_t digest = StreamDigest::of(content);
    current.emplace(block.id, digest);
    const auto prev = digests_.find(block.id);
    if (prev == digests_.end() || prev->second != digest) {
      changed.push_back(ChangedBlock{&block, std::move(content)});
    }
  });
  std::vector<msr::BlockId> freed;
  for (const auto& [id, digest] : digests_) {
    if (current.find(id) == current.end()) freed.push_back(id);
  }

  enc.put_u32(static_cast<std::uint32_t>(freed.size()));
  for (const msr::BlockId id : freed) enc.put_u64(id);
  enc.put_u32(static_cast<std::uint32_t>(changed.size()));
  for (const ChangedBlock& c : changed) {
    enc.put_u64(c.block->id);
    enc.put_u8(static_cast<std::uint8_t>(c.block->segment));
    enc.put_u32(c.block->type);
    enc.put_u32(c.block->count);
    enc.put_u32(static_cast<std::uint32_t>(c.content.size()));
    enc.put_bytes(c.content.data(), c.content.size());
  }
  seal_file(enc);
  const Bytes file = enc.take();
  write_file(chain_path(prefix_, next_seq_), file);

  stats.total_blocks = current.size();
  stats.written_blocks = changed.size();
  stats.freed_blocks = freed.size();
  stats.file_bytes = file.size();
  digests_ = std::move(current);
  ++next_seq_;
  return stats;
}

Bytes synthesize_stream(const std::string& prefix, std::uint64_t last_seq) {
  return synthesize(load_chain(prefix, last_seq));
}

std::uint64_t restart_incremental(const std::function<void(ti::TypeTable&)>& register_types,
                                  const std::function<void(mig::MigContext&)>& program,
                                  const std::string& prefix, std::uint64_t last_seq) {
  const Bytes stream = synthesize_stream(prefix, last_seq);
  ti::TypeTable types;
  register_types(types);
  mig::MigContext ctx(types);
  ctx.begin_restore(stream);
  program(ctx);
  return stream.size();
}

}  // namespace hpm::ckpt
