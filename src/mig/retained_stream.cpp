#include "mig/retained_stream.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"

namespace hpm::mig {

RetainedStream::~RetainedStream() { release(); }

void RetainedStream::set(Bytes stream, std::vector<std::uint64_t> chunk_digests) {
  release();
  memory_ = std::move(stream);
  chunk_digests_ = std::move(chunk_digests);
  size_ = memory_.size();
}

std::uint64_t RetainedStream::chunk_digest(std::uint64_t seq) const {
  if (seq >= chunk_digests_.size()) {
    throw MigrationError("retained stream holds no digest for chunk " + std::to_string(seq));
  }
  return chunk_digests_[seq];
}

void RetainedStream::spill(const std::string& path) {
  if (fd_ >= 0 || size_ == 0) return;
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
  if (fd < 0) {
    throw MigrationError("cannot create retained-stream spill file " + path + ": " +
                         std::strerror(errno));
  }
  std::uint64_t off = 0;
  while (off < size_) {
    const ssize_t n = ::pwrite(fd, memory_.data() + off, size_ - off,
                               static_cast<off_t>(off));
    if (n <= 0) {
      ::close(fd);
      ::unlink(path.c_str());
      throw MigrationError("short write spilling retained stream to " + path);
    }
    off += static_cast<std::uint64_t>(n);
  }
  // The spill replaces the heap copy as the ONLY replay source: it must
  // survive anything the journal survives.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(path.c_str());
    throw MigrationError("cannot fsync retained-stream spill file " + path);
  }
  fd_ = fd;
  path_ = path;
  memory_ = Bytes();  // free, not clear: the point is releasing the memory
}

void RetainedStream::read(std::uint64_t offset, std::span<std::uint8_t> out) const {
  if (offset + out.size() > size_) {
    throw MigrationError("retained-stream read past the end: [" +
                         std::to_string(offset) + ", " +
                         std::to_string(offset + out.size()) + ") of " +
                         std::to_string(size_) + " bytes");
  }
  if (out.empty()) return;
  if (fd_ < 0) {
    std::memcpy(out.data(), memory_.data() + offset, out.size());
    return;
  }
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + got, out.size() - got,
                              static_cast<off_t>(offset + got));
    if (n <= 0) {
      throw MigrationError("retained-stream spill file " + path_ +
                           " truncated or unreadable at offset " +
                           std::to_string(offset + got));
    }
    got += static_cast<std::size_t>(n);
  }
}

Bytes RetainedStream::materialize() const {
  Bytes out(size_);
  read(0, out);
  return out;
}

void RetainedStream::release() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
    fd_ = -1;
    path_.clear();
  }
  memory_ = Bytes();
  chunk_digests_.clear();
  size_ = 0;
}

}  // namespace hpm::mig
