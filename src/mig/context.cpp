#include "mig/context.hpp"

#include <cstring>

#include "mig/chunk_assembler.hpp"
#include "msrm/stream.hpp"
#include "xdr/arch.hpp"

namespace hpm::mig {

void* MigContext::make_global(const char* name, ti::TypeId type, std::uint32_t count) {
  if (!frames_.empty()) {
    throw MigrationError("globals must be created before any migratable frame is entered");
  }
  const msr::MemoryBlock& block = space_.new_block(msr::Segment::Global, type, count, name);
  void* storage = reinterpret_cast<void*>(block.base);
  std::memset(storage, 0, block.size);
  LocalVar var;
  var.name = name;
  var.addr = block.base;
  var.type = type;
  var.count = count;
  var.block = block.id;
  if (mode_ == Mode::Restoring) {
    if (globals_bound_ >= exec_.globals.size()) {
      throw MigrationError("destination registered more globals than the stream carries");
    }
    bind_saved(exec_.globals[globals_bound_++], var);
  }
  globals_.push_back(var);
  return storage;
}

void* MigContext::heap_alloc_raw(ti::TypeId type, std::uint32_t count, const char* name) {
  const msr::MemoryBlock& block = space_.new_block(msr::Segment::Heap, type, count, name);
  void* storage = reinterpret_cast<void*>(block.base);
  std::memset(storage, 0, block.size);
  return storage;
}

void MigContext::heap_free(void* p) {
  // The MSRLT is the heap's only ledger: an owned Heap block based
  // exactly at p is a live allocation of this context (heap_alloc'd or
  // restored). Stack locals, globals, interior pointers and freed blocks
  // all fail the lookup.
  const auto base = reinterpret_cast<msr::Address>(p);
  const msr::MemoryBlock* block = space_.msrlt().find_base(base);
  if (block == nullptr || block->segment != msr::Segment::Heap || !block->owned) {
    throw MigrationError("heap_free: pointer was not allocated by this context");
  }
  space_.msrlt().unregister(base);
  space_.deallocate(base);
}

void MigContext::enter_frame(Frame& frame) {
  frames_.push_back(&frame);
  if (mode_ == Mode::Restoring) {
    if (restore_depth_ >= exec_.frames.size()) {
      throw MigrationError("restore re-execution entered more frames than were saved");
    }
    const SavedFrame& saved = exec_.frames[restore_depth_];
    if (saved.func != frame.func) {
      throw MigrationError(std::string("restore frame mismatch: expected '") + saved.func +
                           "', program entered '" + frame.func + "'");
    }
    frame.restore_from = &saved;
    ++restore_depth_;
  }
}

void MigContext::leave_frame(Frame& frame) {
  if (frames_.empty() || frames_.back() != &frame) {
    // Frames unwind strictly LIFO; anything else is macro misuse.
    std::terminate();
  }
  for (const LocalVar& var : frame.locals) space_.msrlt().unregister(var.addr);
  frames_.pop_back();
}

void MigContext::add_local(Frame& frame, const char* name, void* addr, ti::TypeId type,
                           std::uint32_t count) {
  LocalVar var;
  var.name = name;
  var.addr = reinterpret_cast<msr::Address>(addr);
  var.type = type;
  var.count = count;
  const std::uint64_t size = space_.block_size(type, count);
  var.block =
      space_.msrlt().register_block(msr::Segment::Stack, var.addr, size, type, count, name);
  if (frame.restore_from != nullptr) {
    if (frame.next_restore_var >= frame.restore_from->vars.size()) {
      throw MigrationError(std::string("frame '") + frame.func +
                           "' registered more locals than the stream carries");
    }
    bind_saved(frame.restore_from->vars[frame.next_restore_var++], var);
  }
  frame.locals.push_back(std::move(var));
}

void MigContext::bind_saved(const SavedVar& saved, const LocalVar& dest) {
  if (saved.name != dest.name || saved.type != dest.type || saved.count != dest.count) {
    throw MigrationError("live-variable mismatch: stream has '" + saved.name +
                         "', destination registered '" + dest.name +
                         "' (differing program versions?)");
  }
  restorer_->bind(saved.source_block, dest.block, dest.type, dest.count);
}

void MigContext::poll(Frame& frame, std::uint32_t label) {
  frame.current_point = label;
  if (mode_ == Mode::Restoring) {
    finish_restore(frame, label);
    return;
  }
  ++poll_count_;
  if (poll_observer_) poll_observer_(*this);
  const bool due = requested_.load(std::memory_order_relaxed) ||
                   (migrate_at_poll_ != 0 && poll_count_ >= migrate_at_poll_);
  if (due) do_migration(label);
}

ExecutionState MigContext::snapshot_execution_state() const {
  ExecutionState state;
  state.frames.reserve(frames_.size());
  for (const Frame* frame : frames_) {
    SavedFrame sf;
    sf.func = frame->func;
    sf.resume_point = frame->current_point;
    sf.vars.reserve(frame->locals.size());
    for (const LocalVar& var : frame->locals) {
      sf.vars.push_back(SavedVar{var.name, var.type, var.count, var.block});
    }
    state.frames.push_back(std::move(sf));
  }
  state.globals.reserve(globals_.size());
  for (const LocalVar& var : globals_) {
    state.globals.push_back(SavedVar{var.name, var.type, var.count, var.block});
  }
  return state;
}

void MigContext::do_migration(std::uint32_t label) {
  obs::Span span("mig.collect");
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  // Pre-size from the MSRLT: the stream carries every reachable block's
  // bytes plus bounded per-record framing, so this estimate makes encoder
  // growth a non-event even for multi-megabyte heaps.
  xdr::Encoder enc(space_.msrlt().tracked_bytes() +
                   space_.msrlt().block_count() * 32 + 4096);
  // The collect tap: every leaf-sized slice is hashed once, while it is
  // cache-hot, and handed on with its digest to the sink (if any). That
  // digest seals the slice's StateChunk, names it in a dedup manifest and
  // is its leaf in the root below.
  chunk_digests_.clear();
  enc.set_sink(leaf_bytes_, [this](std::span<const std::uint8_t> bytes) {
    const std::uint64_t digest = StreamDigest::of(bytes);
    chunk_digests_.push_back(digest);
    if (collect_sink_) collect_sink_(bytes, digest);
  });
  msrm::write_header(enc, {space_.arch().name, types_->signature(), leaf_bytes_});
  // Ship the TI table so the destination can adopt shell types interned by
  // source code it will skip during restoration.
  types_->encode(enc);

  // Execution state: frames outermost-first for skeleton re-execution.
  snapshot_execution_state().encode(enc);

  // Memory state: live data innermost-frame-first (the paper's order),
  // then globals. One root per live variable; the duplicate guard makes
  // later records PREFs.
  {
    msrm::Collector collector(space_, enc);
    for (std::size_t i = frames_.size(); i-- > 0;) {
      for (const LocalVar& var : frames_[i]->locals) collector.save_variable(var.addr);
    }
    for (const LocalVar& var : globals_) collector.save_variable(var.addr);
  }

  // Every slice the tap has seen so far is a whole payload leaf, so
  // sealing hashes only the unflushed tail leaf; the slice that then
  // carries the tail and the trailer out is hashed by the tap once more.
  // (A trailer put that flushes a slice grows chunk_digests_ only after
  // finish_stream has read the leaves.)
  collect_digest_ = msrm::finish_stream(enc, chunk_digests_);
  enc.flush_sink();
  stream_ = enc.take();
  span.arg("stream_bytes", std::uint64_t{stream_.size()});
  metrics_.collect_seconds = span.finish();
  metrics_.stream_bytes = stream_.size();
  metrics_.tracked_blocks = space_.msrlt().block_count();
  metrics_.collect = obs::Registry::process().snapshot().delta_since(before);
  throw MigrationExit{label};
}

void MigContext::begin_restore(Bytes stream) {
  if (!frames_.empty()) {
    throw MigrationError("begin_restore must be called before the program starts");
  }
  restore_span_ = std::make_unique<obs::Span>("mig.restore");
  restore_before_ = obs::Registry::process().snapshot();
  restore_stream_ = std::move(stream);
  const auto payload = msrm::check_stream(restore_stream_);
  dec_.emplace(payload);
  restore_from_decoder();
}

void MigContext::begin_restore_streaming(ChunkAssembler& assembler) {
  if (!frames_.empty()) {
    throw MigrationError("begin_restore must be called before the program starts");
  }
  assembler_ = &assembler;
  restore_span_ = std::make_unique<obs::Span>("mig.restore");
  restore_before_ = obs::Registry::process().snapshot();
  restore_stream_.clear();
  // The decoder starts empty and pulls bytes from the assembler on
  // demand; restore_stream_ is consumer-owned, so the rebase after each
  // fetch is single-threaded. The end-to-end checks run at the migration
  // point, once the whole stream has arrived, from the digests the rx
  // thread took of each chunk as it received it.
  dec_.emplace(std::span<const std::uint8_t>{});
  dec_->set_refill([this](std::size_t min_total) {
    if (!assembler_->fetch(restore_stream_, min_total)) return false;
    dec_->rebase({restore_stream_.data(), restore_stream_.size()});
    return true;
  });
  restore_from_decoder();
}

std::uint64_t MigContext::restored_root() const {
  const std::size_t size = restore_stream_.size();
  const std::span<const std::uint8_t> payload(
      restore_stream_.data(), size > msrm::kTrailerBytes ? size - msrm::kTrailerBytes : 0);
  // Chunk i is leaf i while chunks are whole leaves and end before the
  // trailer; a source that chunked otherwise only costs the hashing.
  const std::vector<ChunkAddr> chunks = assembler_->chunk_addrs();
  std::vector<std::uint64_t> leaves;
  leaves.reserve(chunks.size());
  for (const ChunkAddr& c : chunks) {
    if (c.length != restore_leaf_bytes_ ||
        (leaves.size() + 1) * std::size_t{restore_leaf_bytes_} > payload.size()) {
      break;
    }
    leaves.push_back(c.digest);
  }
  return msrm::leaf_root(payload, restore_leaf_bytes_, leaves);
}

/// Shared restore prologue: header, type table, execution state, restorer,
/// retroactive global binding. dec_ must be positioned at the stream head.
void MigContext::restore_from_decoder() {
  const msrm::StreamHeader header = msrm::read_header(*dec_);
  // The signature is checked at the migration point (finish_restore), not
  // here: the program interns pointer/array shell types while it runs, so
  // the tables only converge once the destination has re-executed its
  // prologues down to the migration point.
  header_signature_ = header.ti_signature;
  restore_leaf_bytes_ = header.leaf_bytes;
  if (assembler_ != nullptr && header.leaf_bytes != assembler_->chunk_bytes()) {
    throw WireError("stream leaf size " + std::to_string(header.leaf_bytes) +
                    " disagrees with the announced chunk size " +
                    std::to_string(assembler_->chunk_bytes()));
  }
  {
    const ti::TypeTable source_table = ti::TypeTable::decode(*dec_);
    if (source_table.signature() != header_signature_) {
      throw MigrationError("stream type table does not match its header signature");
    }
    types_->adopt_tail(source_table);
  }
  exec_ = ExecutionState::decode(*dec_);
  if (exec_.frames.empty()) throw MigrationError("stream carries no frames");
  restorer_ = std::make_unique<msrm::Restorer>(space_, *dec_,
                                               xdr::arch_by_name(header.source_arch));
  mode_ = Mode::Restoring;
  restore_depth_ = 0;
  globals_bound_ = 0;
  // Globals the program registered *before* begin_restore (none in the
  // canonical idiom, but allowed) are bound retroactively.
  for (const LocalVar& var : globals_) {
    if (globals_bound_ >= exec_.globals.size()) {
      throw MigrationError("destination registered more globals than the stream carries");
    }
    bind_saved(exec_.globals[globals_bound_++], var);
  }
}

void MigContext::finish_restore(Frame& frame, std::uint32_t label) {
  if (restore_depth_ != exec_.frames.size() || frames_.back() != &frame) {
    throw MigrationError("poll-point reached during restore before the innermost saved "
                         "frame was re-entered (annotation/control-flow mismatch)");
  }
  const SavedFrame& innermost = exec_.frames.back();
  if (innermost.resume_point != label) {
    throw MigrationError("restore resumed at poll-point " + std::to_string(label) +
                         " but the stream was collected at " +
                         std::to_string(innermost.resume_point));
  }
  if (globals_bound_ != exec_.globals.size()) {
    throw MigrationError("destination registered fewer globals than the stream carries");
  }
  if (header_signature_ != types_->signature()) {
    throw MigrationError(
        "type-table signature mismatch at the migration point: source and "
        "destination interned different type registrations");
  }

  // Decode the data section in collection order: frames innermost-first,
  // then globals. Every record must land in the storage bound for it.
  for (std::size_t i = frames_.size(); i-- > 0;) {
    const Frame* f = frames_[i];
    if (f->restore_from == nullptr ||
        f->next_restore_var != f->restore_from->vars.size()) {
      throw MigrationError(std::string("frame '") + f->func +
                           "' registered fewer locals than the stream carries");
    }
    for (const LocalVar& var : f->locals) {
      const msr::BlockId got = restorer_->restore_variable();
      if (got != var.block) {
        throw MigrationError("variable record for '" + var.name +
                             "' restored into the wrong block");
      }
    }
  }
  for (const LocalVar& var : globals_) {
    const msr::BlockId got = restorer_->restore_variable();
    if (got != var.block) {
      throw MigrationError("global record for '" + var.name +
                           "' restored into the wrong block");
    }
  }
  std::uint64_t restored_digest = 0;
  if (assembler_ != nullptr) {
    // Chunked stream: wait for the orderly end (the assembler has already
    // verified chunk count and byte total), pull every remaining byte,
    // compare the end-to-end digest the source computed over the canonical
    // stream against our own — FIRST, so corruption that slipped past
    // every frame seal is named for what it is — then run the whole-buffer
    // path's trailer check. Exactly the 9-byte trailer may stay undecoded.
    // The root comes from the digests the rx thread took of each chunk; of
    // the stream's bytes only the tail leaf is hashed again here.
    const std::uint64_t total = assembler_->await_complete();
    while (restore_stream_.size() < total && assembler_->fetch(restore_stream_, total)) {
    }
    dec_->rebase({restore_stream_.data(), restore_stream_.size()});
    restored_digest = restored_root();
    if (restored_digest != assembler_->end_info().digest) {
      throw MigrationError(
          "end-to-end digest mismatch: canonical stream damaged between "
          "collection and restoration despite intact frame seals");
    }
    msrm::check_stream(restore_stream_, restored_digest);
    if (dec_->remaining() != msrm::kTrailerBytes) {
      throw MigrationError("migration stream has " + std::to_string(dec_->remaining()) +
                           " bytes after the last record (expected the 9-byte trailer)");
    }
  } else if (!dec_->at_end()) {
    throw MigrationError("migration stream has " + std::to_string(dec_->remaining()) +
                         " undecoded bytes after restoration");
  }

  restore_span_->arg("stream_bytes", std::uint64_t{restore_stream_.size()});
  metrics_.restore_seconds = restore_span_->finish();
  restore_span_.reset();
  metrics_.restore = obs::Registry::process().snapshot().delta_since(restore_before_);
  metrics_.stream_bytes = restore_stream_.size();

  const bool streamed = assembler_ != nullptr;
  mode_ = Mode::Normal;
  restorer_.reset();
  dec_.reset();
  restore_stream_.clear();
  assembler_ = nullptr;
  for (Frame* f : frames_) f->restore_from = nullptr;
  // Commit gate (transactional handoff): restoration is fully verified,
  // but the tail must not run until the source relinquishes ownership. A
  // throw here unwinds the not-yet-owned process.
  if (streamed && commit_gate_) commit_gate_(restored_digest);
  if (stop_after_restore_) throw MigrationExit{label};
}

}  // namespace hpm::mig
