#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <span>

#include "mig/chunk_store.hpp"
#include "msrm/stream.hpp"
#include "xdr/wire.hpp"

namespace hpm::ckpt {

namespace {

constexpr std::uint32_t kCkptMagic = 0x48434B50;  // "HCKP"

Bytes read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw Error("cannot open checkpoint file: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  Bytes data(static_cast<std::size_t>(size));
  const std::size_t got = std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (got != data.size()) throw Error("short read from checkpoint file: " + path);
  return data;
}

void write_file(const std::string& path, const Bytes& data) {
  // Write to a sidecar and rename so a crash mid-write never leaves a
  // truncated file under the real name.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw Error("cannot create checkpoint file: " + tmp);
  const std::size_t put = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (put != data.size()) {
    std::remove(tmp.c_str());
    throw Error("short write to checkpoint file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw Error("cannot move checkpoint into place: " + path);
  }
}

/// Preamble := u32 magic | u64 sequence | u32 state-length; the migration
/// stream (with its own seal) follows.
Bytes wrap(std::uint64_t sequence, const Bytes& stream) {
  xdr::Encoder enc(stream.size() + 16);
  enc.put_u32(kCkptMagic);
  enc.put_u64(sequence);
  enc.put_u32(static_cast<std::uint32_t>(stream.size()));
  enc.put_bytes(stream.data(), stream.size());
  return enc.take();
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
  write_file(path, wrap(sequence, ctx.stream()));

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
  const Unwrapped file = unwrap(read_file(path));
  ti::TypeTable types;
  register_types(types);
  mig::MigContext ctx(types);
  ctx.begin_restore(file.stream);
  program(ctx);
  return file.info;
}

CheckpointInfo inspect(const std::string& path) { return unwrap(read_file(path)).info; }

std::size_t seed_chunk_cache(const std::string& ckpt_path, const std::string& cache_dir,
                             std::size_t chunk_bytes, std::uint64_t cache_budget) {
  if (chunk_bytes == 0 || chunk_bytes > msrm::kMaxLeafBytes) {
    throw Error("seed_chunk_cache: chunk_bytes must lie in [1, " +
                std::to_string(msrm::kMaxLeafBytes) + "]");
  }
  Unwrapped file = unwrap(read_file(ckpt_path));
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
