// The retained canonical stream behind resume and failover.
//
// A pipelined transaction must be able to retransmit any chunk of the
// collected stream until the destination's Committed is confirmed: resume
// replays the tail past the chunk count the destination announces in its
// ResumeHello, and destination failover replays [0, end) at a standby.
// Before failover the retained copy lived only in source memory — fine
// for one resume, fatal under memory pressure and wasteful when a big
// process might wait minutes for a standby to dial. RetainedStream keeps the bytes in memory by default
// and can spill them to an fsync'd file (RunOptions::retain_dir), after
// which reads are served by pread and the heap copy is freed. Either way
// the chunk math is identical: the stream is an immutable byte array
// from the moment collection finishes. The collect tap's chunk digests stay
// in memory beside it (8 bytes per chunk), so a replay seals its frames
// and a manifest names its chunks without hashing the stream again.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/hexdump.hpp"

namespace hpm::mig {

/// Immutable collected stream, resident in memory or spilled to disk.
///
/// Thread-safety: none needed — set once by the collection thread, read
/// by the sender loop after a happens-before (the coordinator joins the
/// collection before any retransmit).
class RetainedStream {
 public:
  RetainedStream() = default;
  ~RetainedStream();

  RetainedStream(const RetainedStream&) = delete;
  RetainedStream& operator=(const RetainedStream&) = delete;

  /// Adopt the collected stream (memory mode) and the StreamDigest of each
  /// of its chunks, in order (MigContext::chunk_digests()).
  void set(Bytes stream, std::vector<std::uint64_t> chunk_digests);

  /// The collect tap's digest of chunk `seq`. Throws hpm::MigrationError
  /// past the last one.
  [[nodiscard]] std::uint64_t chunk_digest(std::uint64_t seq) const;

  /// Write the retained bytes to `path` (fsync'd), then free the heap
  /// copy: reads switch to pread against the spill file. Throws
  /// hpm::MigrationError if the file cannot be written — a failover
  /// promised a durable replay source and must not pretend. No-op when
  /// already spilled or empty.
  void spill(const std::string& path);

  /// Copy `[offset, offset+out.size())` of the stream into `out`.
  /// Throws hpm::MigrationError on out-of-range reads or spill-file IO
  /// errors (a truncated spill must fail loudly, not replay garbage).
  void read(std::uint64_t offset, std::span<std::uint8_t> out) const;

  /// The whole stream as a fresh in-memory copy — local completion
  /// restores from a contiguous buffer.
  [[nodiscard]] Bytes materialize() const;

  /// Unlink the spill file (if any) and drop the memory copy. Called once
  /// the transaction reached a terminal verdict; safe to call twice.
  void release();

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool spilled() const noexcept { return fd_ >= 0; }
  [[nodiscard]] const std::string& spill_path() const noexcept { return path_; }

 private:
  Bytes memory_;
  std::vector<std::uint64_t> chunk_digests_;
  std::string path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
};

}  // namespace hpm::mig
