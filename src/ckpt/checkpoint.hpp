// Checkpoint/restart on top of the migration stream.
//
// The paper's data collection/restoration mechanism is exactly a
// process-state serializer; pointing it at a file instead of a socket
// yields heterogeneous checkpointing for free (§5 positions this as the
// basic component of a larger mobility system). A checkpoint written on
// one architecture restarts on any other, because the stream is the same
// canonical format migration uses.
//
// File format: the migration stream (header + TI table + execution state
// + data + digest trailer), preceded by a small checkpoint preamble with a
// wall-clock-free sequence number so a restart manager can pick the
// newest of several checkpoint files.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "mig/context.hpp"

namespace hpm::ckpt {

struct CheckpointInfo {
  std::uint64_t sequence = 0;      ///< caller-supplied monotonic number
  std::uint64_t state_bytes = 0;   ///< migration-stream payload size
  std::string source_arch;         ///< architecture that wrote it
};

/// Run `program` under a context that checkpoints at poll `at_poll` and
/// then *continues* (unlike migration, the process does not terminate):
/// the collected stream is written to `path` and the program is resumed
/// by immediately restoring the state into a fresh context — the
/// fork-like "checkpoint and keep running" semantics.
///
/// Returns the info block of the checkpoint written. Throws hpm::Error
/// subclasses on failure.
CheckpointInfo checkpoint_run(const std::function<void(ti::TypeTable&)>& register_types,
                              const std::function<void(mig::MigContext&)>& program,
                              const std::string& path, std::uint64_t at_poll,
                              std::uint64_t sequence = 1);

/// Restart a checkpointed program from `path`: restores the execution
/// and memory state and runs the program to completion.
CheckpointInfo restart_run(const std::function<void(ti::TypeTable&)>& register_types,
                           const std::function<void(mig::MigContext&)>& program,
                           const std::string& path);

/// Read just the preamble (validation, tooling, newest-file selection).
CheckpointInfo inspect(const std::string& path);

/// Seed a migration chunk cache (a `mig::ChunkStore` directory, see
/// DESIGN.md §15) with the canonical chunks of the checkpoint's embedded
/// stream, re-sealed at leaf size `chunk_bytes` (msrm::reseal_stream: the
/// header and trailer name the leaf size) and sliced at it — the same
/// stream and chunking the dedup'd transfer announces in its manifest. A
/// migration of the checkpointed process whose
/// `RunOptions::{chunk_cache_dir,chunk_bytes}` match then answers its
/// manifest from the checkpoint: checkpoint rounds and migrations hit the
/// same cache. Returns the number of chunks inserted.
std::size_t seed_chunk_cache(const std::string& ckpt_path, const std::string& cache_dir,
                             std::size_t chunk_bytes,
                             std::uint64_t cache_budget = 256ull << 20);

}  // namespace hpm::ckpt
