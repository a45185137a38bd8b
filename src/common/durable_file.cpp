#include "common/durable_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/error.hpp"

namespace hpm::durable {

namespace {

using Kind = Event::Kind;

std::atomic<const Recorder*> g_recorder{nullptr};

[[noreturn]] void fail(const std::string& what, const std::string& path, int err) {
  throw Error(what + " " + path + ": " + std::strerror(err));
}

/// Logs one operation's steps while a recorder is installed.
struct Log {
  const Recorder* rec = g_recorder.load(std::memory_order_acquire);

  void operator()(Kind kind, const std::string& path, std::string to = {},
                  std::uint64_t offset = 0, Parts parts = {}) const {
    if (rec == nullptr) return;
    Event event{kind, path, std::move(to), offset, {}};
    for (const auto part : parts) {
      event.data.insert(event.data.end(), part.begin(), part.end());
    }
    (*rec)(std::move(event));
  }
};

std::string parent_of(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  return dir.empty() ? "." : dir;
}

/// Write every part at `offset` (for the log), fsync and close `fd`. False,
/// with errno of the first failure, if any step failed.
bool write_sync_close(int fd, const std::string& path, std::uint64_t offset, Parts parts,
                      const Log& log) {
  int err = 0;
  for (const auto part : parts) {
    for (std::size_t done = 0; err == 0 && done < part.size();) {
      const ssize_t n = ::write(fd, part.data() + done, part.size() - done);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
      } else if (n == 0 || errno != EINTR) {
        err = n == 0 ? EIO : errno;
      }
    }
  }
  if (err == 0) log(Kind::Write, path, {}, offset, parts);
  if (err == 0 && ::fsync(fd) != 0) err = errno;
  if (err == 0) log(Kind::SyncFile, path);
  if (::close(fd) != 0 && err == 0) err = errno;
  errno = err;
  return err == 0;
}

}  // namespace

void append(const std::string& path, Parts parts) {
  const Log log;
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  bool created = false;
  if (fd < 0 && errno == ENOENT) {
    fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    created = fd >= 0;
    if (fd < 0 && errno == EEXIST) fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  }
  if (fd < 0) fail("cannot open", path, errno);
  if (created) log(Kind::Create, path);
  struct stat st {};
  const std::uint64_t offset = log.rec != nullptr && ::fstat(fd, &st) == 0 ? st.st_size : 0;
  if (!write_sync_close(fd, path, offset, parts, log)) fail("cannot append to", path, errno);
  // A new file's name lives in its directory: unsynced, a crash can lose
  // the file and every record fsync'd into it.
  if (created && !sync_dir(parent_of(path))) fail("cannot sync the directory of", path, errno);
  log(Kind::Returned, path, "append", 0, parts);
}

void write_new(const std::string& path, Parts parts) {
  const Log log;
  struct stat st {};
  const bool existed = log.rec != nullptr && ::stat(path.c_str(), &st) == 0;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) fail("cannot create", path, errno);
  log(existed ? Kind::Truncate : Kind::Create, path);
  if (!write_sync_close(fd, path, 0, parts, log)) {
    const int err = errno;
    remove(path);
    fail("cannot write", path, err);
  }
  log(Kind::Returned, path, "write_new", 0, parts);
}

void replace(const std::string& path, Parts parts) {
  // The bytes must be durable before the rename is, or a crash can keep
  // the rename and lose them, tearing `path`.
  const std::string tmp = path + ".tmp";
  write_new(tmp, parts);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    remove(tmp);
    fail("cannot replace", path, err);
  }
  const Log log;
  log(Kind::Rename, tmp, path);
  // Unsynced, a crash can undo the rename after replace() returned.
  if (!sync_dir(parent_of(path))) fail("cannot sync the directory of", path, errno);
  log(Kind::Returned, path, "replace", 0, parts);
}

bool sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool ok = fd >= 0 && ::fsync(fd) == 0;
  const int err = errno;
  if (fd >= 0) ::close(fd);
  errno = err;
  if (ok) Log()(Kind::SyncDir, dir);
  return ok;
}

bool remove(const std::string& path) {
  if (::unlink(path.c_str()) != 0) return false;
  Log()(Kind::Unlink, path);
  return true;
}

Bytes read_all(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail("cannot open", path, errno);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    throw Error("cannot read " + path + ": not a regular file");
  }
  Bytes out(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  for (ssize_t n = 1; got < out.size() && (n > 0 || (n < 0 && errno == EINTR));) {
    n = ::read(fd, out.data() + got, out.size() - got);
    if (n > 0) got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (got != out.size()) fail("short read from", path, EIO);
  return out;
}

void set_recorder(const Recorder* recorder) noexcept {
  g_recorder.store(recorder, std::memory_order_release);
}

}  // namespace hpm::durable
