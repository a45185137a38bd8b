#include "net/file_channel.hpp"

#include <sys/stat.h>

#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace hpm::net {

namespace {

bool file_exists(const std::string& p) {
  struct stat st{};
  return ::stat(p.c_str(), &st) == 0;
}

/// `net.file.*` transport counters, shared by both spool-file endpoints.
struct FileMetrics {
  obs::Counter& bytes_sent = obs::Registry::process().counter("net.file.bytes_sent");
  obs::Counter& bytes_recv = obs::Registry::process().counter("net.file.bytes_recv");
  obs::Counter& timeouts = obs::Registry::process().counter("net.file.timeouts");

  static FileMetrics& get() {
    static FileMetrics m;
    return m;
  }
};

}  // namespace

FileWriterChannel::FileWriterChannel(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) throw NetError("cannot open spool file for writing: " + path_);
}

FileWriterChannel::~FileWriterChannel() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; close() failure is already fatal upstream.
  }
}

void FileWriterChannel::sendv(std::span<const ConstBytes> parts) {
  if (file_ == nullptr) throw NetError("send on closed FileWriterChannel");
  for (const ConstBytes part : parts) {
    if (!part.empty() && std::fwrite(part.data(), 1, part.size(), file_) != part.size()) {
      throw NetError("short write to spool file " + path_);
    }
  }
  if (std::fflush(file_) != 0) throw NetError("fflush failed on " + path_);
  FileMetrics::get().bytes_sent.add(total_size(parts));
}

void FileReaderChannel::send(std::span<const std::uint8_t>) {
  throw NetError("FileReaderChannel is receive-only");
}

void FileWriterChannel::recv(std::span<std::uint8_t>) {
  throw NetError("FileWriterChannel is send-only");
}

void FileWriterChannel::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    std::FILE* done = std::fopen((path_ + ".done").c_str(), "wb");
    if (done == nullptr) throw NetError("cannot create done marker for " + path_);
    std::fclose(done);
  }
}

void FileWriterChannel::abort() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

FileReaderChannel::FileReaderChannel(std::string path) : path_(std::move(path)) {}

FileReaderChannel::~FileReaderChannel() {
  if (file_ != nullptr) std::fclose(file_);
}

void FileReaderChannel::recv(std::span<std::uint8_t> out) {
  using namespace std::chrono_literals;
  const bool bounded = timeout_.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  std::size_t got = 0;
  while (got < out.size()) {
    if (bounded && std::chrono::steady_clock::now() >= deadline) {
      FileMetrics::get().timeouts.add(1);
      if (got > 0) FileMetrics::get().bytes_recv.add(got);
      throw TimeoutError("spool file " + path_ + " recv timed out with " +
                         std::to_string(out.size() - got) + " bytes outstanding");
    }
    if (file_ == nullptr) {
      file_ = std::fopen(path_.c_str(), "rb");
      if (file_ == nullptr) {
        std::this_thread::sleep_for(1ms);
        continue;
      }
    }
    std::fseek(file_, static_cast<long>(pos_), SEEK_SET);
    const std::size_t n = std::fread(out.data() + got, 1, out.size() - got, file_);
    got += n;
    pos_ += n;
    if (got < out.size()) {
      if (file_exists(path_ + ".done")) {
        // Re-check once more: the writer may have appended just before
        // dropping the marker.
        std::fseek(file_, static_cast<long>(pos_), SEEK_SET);
        const std::size_t m = std::fread(out.data() + got, 1, out.size() - got, file_);
        got += m;
        pos_ += m;
        if (got < out.size()) {
          throw NetError("spool file " + path_ + " ended " +
                         std::to_string(out.size() - got) + " bytes short");
        }
        break;
      }
      std::this_thread::sleep_for(1ms);
    }
  }
  FileMetrics::get().bytes_recv.add(got);
}

void FileReaderChannel::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace hpm::net
