#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/durable_file.hpp"
#include "common/endian.hpp"
#include "mig/chunk_store.hpp"
#include "msrm/stream.hpp"
#include "xdr/wire.hpp"

namespace hpm::ckpt {

namespace {

constexpr std::uint32_t kCkptMagic = 0x48434B50;  // "HCKP"

/// Preamble := u32 magic | u64 sequence | u32 state-length; the migration
/// stream (with its own seal) follows. Written as the first part of the
/// file, so the stream itself is never copied.
std::array<std::uint8_t, 16> preamble(std::uint64_t sequence, const Bytes& stream) {
  std::array<std::uint8_t, 16> out{};
  put_u32_be(out.data(), kCkptMagic);
  put_u64_be(out.data() + 4, sequence);
  put_u32_be(out.data() + 12, static_cast<std::uint32_t>(stream.size()));
  return out;
}

struct Unwrapped {
  CheckpointInfo info;
  Bytes stream;
};

Unwrapped unwrap(const Bytes& file) {
  xdr::Decoder dec(file);
  if (dec.get_u32() != kCkptMagic) throw WireError("not a checkpoint file (bad magic)");
  Unwrapped out;
  out.info.sequence = dec.get_u64();
  const std::uint32_t len = dec.get_u32();
  out.stream.resize(len);
  dec.get_bytes(out.stream.data(), len);
  out.info.state_bytes = len;
  // Peek the stream header for the architecture tag (and let the seal
  // validate integrity).
  const auto payload = msrm::check_stream(out.stream);
  xdr::Decoder sdec(payload);
  out.info.source_arch = msrm::read_header(sdec).source_arch;
  return out;
}

}  // namespace

CheckpointInfo checkpoint_run(const std::function<void(ti::TypeTable&)>& register_types,
                              const std::function<void(mig::MigContext&)>& program,
                              const std::string& path, std::uint64_t at_poll,
                              std::uint64_t sequence) {
  // Phase 1: run to the checkpoint and collect (the "migration" half).
  ti::TypeTable types;
  register_types(types);
  mig::MigContext ctx(types);
  ctx.set_migrate_at_poll(at_poll);
  bool collected = false;
  try {
    program(ctx);
  } catch (const mig::MigrationExit&) {
    collected = true;
  }
  if (!collected) {
    throw MigrationError("program completed before reaching checkpoint poll " +
                         std::to_string(at_poll));
  }
  durable::replace(path, {preamble(sequence, ctx.stream()), ctx.stream()});

  // Phase 2: keep running — restore into a fresh context and finish, so
  // the caller observes checkpoint-and-continue semantics.
  CheckpointInfo info;
  info.sequence = sequence;
  info.state_bytes = ctx.stream().size();
  info.source_arch = ctx.space().arch().name;
  ti::TypeTable resume_types;
  register_types(resume_types);
  mig::MigContext resume(resume_types);
  resume.begin_restore(ctx.stream());
  program(resume);
  return info;
}

CheckpointInfo restart_run(const std::function<void(ti::TypeTable&)>& register_types,
                           const std::function<void(mig::MigContext&)>& program,
                           const std::string& path) {
  const Unwrapped file = unwrap(durable::read_all(path));
  ti::TypeTable types;
  register_types(types);
  mig::MigContext ctx(types);
  ctx.begin_restore(file.stream);
  program(ctx);
  return file.info;
}

CheckpointInfo inspect(const std::string& path) {
  return unwrap(durable::read_all(path)).info;
}

std::size_t seed_chunk_cache(const std::string& ckpt_path, const std::string& cache_dir,
                             std::size_t chunk_bytes, std::uint64_t cache_budget) {
  if (chunk_bytes == 0 || chunk_bytes > msrm::kMaxLeafBytes) {
    throw Error("seed_chunk_cache: chunk_bytes must lie in [1, " +
                std::to_string(msrm::kMaxLeafBytes) + "]");
  }
  Unwrapped file = unwrap(durable::read_all(ckpt_path));
  msrm::reseal_stream(file.stream, static_cast<std::uint32_t>(chunk_bytes));
  mig::ChunkStore store(cache_dir, cache_budget);
  store.open();
  std::size_t inserted = 0;
  for (std::size_t off = 0; off < file.stream.size(); off += chunk_bytes) {
    const std::size_t len = std::min(chunk_bytes, file.stream.size() - off);
    const std::span<const std::uint8_t> body{file.stream.data() + off, len};
    if (!store.contains(mig::ChunkStore::address_of(body))) {
      store.put(body);
      ++inserted;
    }
  }
  store.sync_dir();
  return inserted;
}

}  // namespace hpm::ckpt
