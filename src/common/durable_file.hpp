// Durable files: the one place hpm decides which fsyncs POSIX needs.
//
// Every file hpm must find again after a crash (intent journals, chunk
// store records and stats, checkpoints) is written by one of the
// operations below, and every whole file hpm reads back comes through
// read_all(). Written bytes are durable once their file is fsync'd; a
// create, rename or unlink once its DIRECTORY is. Each operation says
// which it does and which it leaves to its caller (DESIGN.md §6,
// "Durability"), and takes its bytes as spans, so no caller stitches a
// header and a body into one buffer.
//
// A Recorder is a test seam: while one is installed, every operation logs
// the file-system steps it took and when it returned, so a test can
// rebuild every state a crash could leave (test_disk_crash).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>

#include "common/hexdump.hpp"

namespace hpm::durable {

using Parts = std::initializer_list<std::span<const std::uint8_t>>;

/// Append to `path` (created if missing) and fsync it; when this call
/// created the file, fsync its directory too. Throws hpm::Error.
void append(const std::string& path, Parts parts);

/// Create or truncate `path`, write and fsync it; a failed write unlinks
/// it. The caller makes a batch of new names durable with one sync_dir().
/// Throws hpm::Error.
void write_new(const std::string& path, Parts parts);

/// write_new() `<path>.tmp`, rename it over `path` and fsync the
/// directory: a crash leaves the old file or the new one. Throws
/// hpm::Error (the temporary file is unlinked).
void replace(const std::string& path, Parts parts);

/// fsync a directory; false if it cannot be opened or synced.
bool sync_dir(const std::string& dir);

/// Unlink `path`; true if it was removed. Durable once the caller syncs
/// the directory. Never throws unless a test recorder does.
bool remove(const std::string& path);

/// The whole regular file `path`. Throws hpm::Error when it cannot be
/// opened, is not a regular file (a directory), or reads short.
Bytes read_all(const std::string& path);

/// One logged file-system step of an operation above.
struct Event {
  enum class Kind : std::uint8_t {
    Create,    ///< `path` came into existence, empty
    Truncate,  ///< the existing `path` was cut to zero bytes
    Write,     ///< `data` written to `path` at `offset`
    SyncFile,  ///< fsync of `path`
    Rename,    ///< `path` renamed to `to`
    Unlink,    ///< `path` removed
    SyncDir,   ///< fsync of the directory `path`
    Returned,  ///< operation `to` on `path` returned; `data` is what it wrote
  };
  Kind kind{};
  std::string path;
  std::string to;
  std::uint64_t offset = 0;
  Bytes data;
};

/// Called with every step of every operation, from the thread that took
/// it, while installed.
using Recorder = std::function<void(Event)>;

/// Install `recorder` (null: none) for the whole process; the caller keeps
/// it alive until it uninstalls it.
void set_recorder(const Recorder* recorder) noexcept;

}  // namespace hpm::durable
