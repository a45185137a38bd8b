// Incremental checkpointing: block-level deltas between successive
// checkpoints of a running migratable program.
//
// The paper's §4.3 observation — migration/checkpoint cost tracks the
// amount of live data — motivates the classic remedy: after one full
// (base) capture, later checkpoints write only the memory blocks whose
// contents changed, plus the small execution state. The capture format is
// *flat*: every tracked block is encoded shallowly (pointer cells as
// (block id, leaf ordinal) references, never inlined), which makes
// per-block digesting and diffing trivial. On restart, base + deltas are
// merged and a standard migration stream is synthesized from the merged
// image, so the entire restoration path (binding, skeleton re-execution,
// resume) is reused unchanged.
//
// File format (canonical encoding, sealed with the migration stream's
// digest trailer; version 2 since that trailer became the u64 StreamDigest):
//
//   File    := u32 'HCKI' | u16 version | u64 seq | str arch | u64 ti-sig
//            | [seq==0: TI table]
//            | ExecutionState
//            | u32 n-freed | n-freed * u64 id
//            | u32 n-blocks | n-blocks * BlockRec
//            | trailer
//   BlockRec:= u64 id | u8 seg | u32 type | u32 count
//            | u32 len | len bytes of flat content
//   content := leaves in ordinal order; primitives canonical; pointer
//              leaves are u8 PNULL, or u8 PREF + u64 id + u64 leaf
#pragma once

#include <map>
#include <string>
#include <unordered_map>

#include "mig/context.hpp"

namespace hpm::ckpt {

struct IncrementalStats {
  std::uint64_t sequence = 0;
  std::uint64_t total_blocks = 0;    ///< tracked blocks at capture time
  std::uint64_t written_blocks = 0;  ///< blocks in this file (delta size)
  std::uint64_t freed_blocks = 0;
  std::uint64_t file_bytes = 0;
};

/// Source-side session. Call capture() from a poll observer (or any
/// point where the context is at a poll-quiescent state).
class IncrementalCheckpointer {
 public:
  /// Files are written as `<prefix>.<seq>` under the caller's control of
  /// the directory part; seq 0 is the full base.
  explicit IncrementalCheckpointer(std::string prefix) : prefix_(std::move(prefix)) {}

  /// Capture the context's current state; writes the next file in the
  /// chain and returns what it cost.
  IncrementalStats capture(mig::MigContext& ctx);

  [[nodiscard]] std::uint64_t next_sequence() const noexcept { return next_seq_; }

 private:
  std::string prefix_;
  std::uint64_t next_seq_ = 0;
  std::unordered_map<msr::BlockId, std::uint64_t> digests_;  ///< id -> content digest
};

/// Merge the chain `<prefix>.0 ... <prefix>.<last_seq>`, synthesize a
/// standard migration stream, and restart the program from it.
/// Returns the synthesized stream size.
std::uint64_t restart_incremental(const std::function<void(ti::TypeTable&)>& register_types,
                                  const std::function<void(mig::MigContext&)>& program,
                                  const std::string& prefix, std::uint64_t last_seq);

/// Merge the chain and synthesize the standard migration stream without
/// running anything (tooling, tests).
Bytes synthesize_stream(const std::string& prefix, std::uint64_t last_seq);

}  // namespace hpm::ckpt
