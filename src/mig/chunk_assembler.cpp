#include "mig/chunk_assembler.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace hpm::mig {

/// Reserve ahead so the append below cannot trigger a per-chunk
/// reallocation: when the backing store is about to run out, grow it in
/// one move to the larger of double the current capacity and a 16-chunk
/// stride of the announced chunk size, capped at 64 MiB so a large (or
/// hostile) announced size reserves no more than that ahead of the bytes
/// that arrived. Either bound keeps the total number of regrowths
/// logarithmic in the stream size.
void ChunkAssembler::reserve_for_locked(std::size_t incoming) {
  const std::size_t needed = data_.size() + incoming;
  if (needed <= data_.capacity()) return;
  const std::size_t stride =
      std::min(static_cast<std::size_t>(chunk_bytes_) * 16, std::size_t{64} << 20);
  data_.reserve(std::max({needed, data_.capacity() * 2, data_.size() + stride}));
  ++growths_;
}

void ChunkAssembler::fail_locked(std::string reason) {
  if (!failed_) {
    failed_ = true;
    reason_ = std::move(reason);
  }
  cv_.notify_all();
}

void ChunkAssembler::append(std::uint32_t seq, std::span<const std::uint8_t> bytes,
                            std::uint64_t digest) {
  std::lock_guard lk(mu_);
  if (failed_) return;  // late chunks after a failure are drained, not kept
  const std::size_t next = addrs_.size();
  if (complete_) {
    fail_locked("protocol violation: StateChunk " + std::to_string(seq) +
                " arrived after StateEnd");
    throw ProtocolError(reason_);
  }
  if (seq < next) {
    fail_locked("duplicate or replayed chunk: seq " + std::to_string(seq) +
                " already assembled (next expected " + std::to_string(next) + ")");
    throw ProtocolError(reason_);
  }
  if (seq > next) {
    fail_locked("chunk sequence gap: expected " + std::to_string(next) + ", got " +
                std::to_string(seq));
    throw ProtocolError(reason_);
  }
  reserve_for_locked(bytes.size());
  data_.insert(data_.end(), bytes.begin(), bytes.end());
  addrs_.push_back({digest, static_cast<std::uint32_t>(bytes.size())});
  if (manifest_mode_ && next < held_.size() && held_[next].have) {
    // A raw resume retransmit superseded a held hit; drop the copy.
    held_[next] = Held{};
  }
  if (manifest_mode_ && splice_enabled_) splice_pending_locked();
  cv_.notify_all();
}

void ChunkAssembler::splice_pending_locked() {
  while (addrs_.size() < held_.size() && held_[addrs_.size()].have) {
    Held hit = std::exchange(held_[addrs_.size()], Held{});
    reserve_for_locked(hit.body.size());
    data_.insert(data_.end(), hit.body.begin(), hit.body.end());
    addrs_.push_back(hit.addr);
  }
}

std::vector<std::uint32_t> ChunkAssembler::begin_manifest(const std::vector<ChunkAddr>& addrs,
                                                          ChunkStore& store) {
  std::lock_guard lk(mu_);
  if (manifest_mode_ || !addrs_.empty() || complete_) {
    fail_locked("protocol violation: manifest announced mid-stream");
    throw ProtocolError(reason_);
  }
  manifest_mode_ = true;
  held_.resize(addrs.size());
  std::vector<std::uint32_t> misses;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    // load() checks the record header and recomputes the body digest, so
    // a corrupted entry becomes a miss (and is unlinked) right here —
    // the re-request happens inside the same negotiation. A hit's body
    // hashes to its address: that address is its digest.
    if (store.load(addrs[i], held_[i].body)) {
      held_[i].addr = addrs[i];
      held_[i].have = true;
    } else {
      misses.push_back(static_cast<std::uint32_t>(i));
    }
  }
  splice_pending_locked();
  cv_.notify_all();
  return misses;
}

void ChunkAssembler::mark_resumed() {
  std::lock_guard lk(mu_);
  splice_enabled_ = false;
}

void ChunkAssembler::finish(const net::StateEndInfo& info) {
  std::lock_guard lk(mu_);
  if (failed_) return;
  if (complete_) {
    fail_locked("protocol violation: second StateEnd for one stream");
    throw ProtocolError(reason_);
  }
  if (info.chunk_count != addrs_.size()) {
    fail_locked("stream ended after " + std::to_string(addrs_.size()) +
                " chunks, sender reports " +
                std::to_string(info.chunk_count));
    return;
  }
  if (info.total_bytes != data_.size()) {
    fail_locked("stream ended with " + std::to_string(data_.size()) +
                " bytes, sender reports " + std::to_string(info.total_bytes));
    return;
  }
  end_ = info;
  complete_ = true;
  cv_.notify_all();
}

void ChunkAssembler::fail(std::string reason) {
  std::lock_guard lk(mu_);
  fail_locked(std::move(reason));
}

bool ChunkAssembler::fetch(Bytes& out, std::size_t min_total) {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [&] { return data_.size() >= min_total || complete_ || failed_; });
  if (failed_) throw NetError("chunked transfer failed: " + reason_);
  if (data_.size() <= out.size()) return false;  // complete and exhausted
  out.insert(out.end(), data_.begin() + static_cast<std::ptrdiff_t>(out.size()), data_.end());
  return true;
}

std::uint64_t ChunkAssembler::await_complete() {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [&] { return complete_ || failed_; });
  if (failed_) throw NetError("chunked transfer failed: " + reason_);
  return data_.size();
}

std::uint32_t ChunkAssembler::chunks_received() const {
  std::lock_guard lk(mu_);
  return static_cast<std::uint32_t>(addrs_.size());
}

std::vector<ChunkAddr> ChunkAssembler::chunk_addrs() const {
  std::lock_guard lk(mu_);
  return addrs_;
}

net::StateEndInfo ChunkAssembler::end_info() const {
  std::lock_guard lk(mu_);
  return end_;
}

std::uint64_t ChunkAssembler::alloc_growths() const {
  std::lock_guard lk(mu_);
  return growths_;
}

}  // namespace hpm::mig
