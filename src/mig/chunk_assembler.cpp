#include "mig/chunk_assembler.hpp"

#include <utility>

#include "common/error.hpp"

namespace hpm::mig {

void ChunkAssembler::fail_locked(std::string reason) {
  if (!failed_) {
    failed_ = true;
    reason_ = std::move(reason);
  }
  cv_.notify_all();
}

void ChunkAssembler::append(std::uint32_t seq, Bytes bytes, std::size_t offset,
                            std::uint64_t digest) {
  std::lock_guard lk(mu_);
  if (failed_) return;  // late chunks after a failure are drained, not kept
  const std::size_t next = segments_.size();
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
  const auto length = static_cast<std::uint32_t>(bytes.size() - offset);
  total_ += length;
  segments_.push_back({std::move(bytes), offset, {digest, length}});
  if (manifest_mode_ && next < held_.size() && held_[next].have) {
    // A raw resume retransmit superseded a held hit; drop the hit.
    held_[next] = Held{};
  }
  if (manifest_mode_ && splice_enabled_) splice_pending_locked();
  cv_.notify_all();
}

void ChunkAssembler::splice_pending_locked() {
  while (segments_.size() < held_.size() && held_[segments_.size()].have) {
    Held hit = std::exchange(held_[segments_.size()], Held{});
    total_ += hit.addr.length;
    segments_.push_back({std::move(hit.body), 0, hit.addr});
  }
}

std::vector<std::uint32_t> ChunkAssembler::begin_manifest(const std::vector<ChunkAddr>& addrs,
                                                          ChunkStore& store) {
  std::lock_guard lk(mu_);
  if (manifest_mode_ || !segments_.empty() || complete_) {
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
  if (info.chunk_count != segments_.size()) {
    fail_locked("stream ended after " + std::to_string(segments_.size()) +
                " chunks, sender reports " + std::to_string(info.chunk_count));
    return;
  }
  if (info.total_bytes != total_) {
    fail_locked("stream ended with " + std::to_string(total_) + " bytes, sender reports " +
                std::to_string(info.total_bytes));
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

bool ChunkAssembler::segment(std::size_t i, std::span<const std::uint8_t>& out) {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [&] { return i < segments_.size() || complete_ || failed_; });
  if (failed_) throw NetError("chunked transfer failed: " + reason_);
  if (i >= segments_.size()) return false;  // complete and exhausted
  const Segment& s = segments_[i];
  out = std::span<const std::uint8_t>(s.bytes).subspan(s.offset);
  return true;
}

std::uint64_t ChunkAssembler::await_complete() {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [&] { return complete_ || failed_; });
  if (failed_) throw NetError("chunked transfer failed: " + reason_);
  return total_;
}

std::uint32_t ChunkAssembler::chunks_received() const {
  std::lock_guard lk(mu_);
  return static_cast<std::uint32_t>(segments_.size());
}

std::vector<ChunkAddr> ChunkAssembler::chunk_addrs() const {
  std::lock_guard lk(mu_);
  std::vector<ChunkAddr> addrs;
  addrs.reserve(segments_.size());
  for (const Segment& s : segments_) addrs.push_back(s.addr);
  return addrs;
}

net::StateEndInfo ChunkAssembler::end_info() const {
  std::lock_guard lk(mu_);
  return end_;
}

}  // namespace hpm::mig
