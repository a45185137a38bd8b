// Shared-file-system transport (the paper's second transfer option).
//
// The sender appends to a spool file; the receiver tails it. A sidecar
// ".done" marker communicates end-of-stream, so the two processes only
// need a shared directory — no sockets.
#pragma once

#include <cstdio>
#include <string>

#include "net/channel.hpp"

namespace hpm::net {

/// Write endpoint: appends bytes to `path`, creates `path + ".done"` on
/// close().
class FileWriterChannel final : public ByteChannel {
 public:
  explicit FileWriterChannel(std::string path);
  ~FileWriterChannel() override;

  void send(ConstBytes data) override { sendv({&data, 1}); }
  /// The parts written in order, then one flush.
  void sendv(std::span<const ConstBytes> parts) override;
  void recv(std::span<std::uint8_t> out) override;  // always throws
  void set_timeout(std::chrono::milliseconds) override {}  // writes never block
  void close() override;
  /// Crash-style teardown: the spool is left WITHOUT its ".done" marker,
  /// so the reader sees a stream that never completes instead of a clean
  /// (possibly short) end-of-stream.
  void abort() override;

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

/// Read endpoint: blocks (with a short poll interval) until enough bytes
/// are available in `path`, treating `path + ".done"` as end-of-stream.
class FileReaderChannel final : public ByteChannel {
 public:
  explicit FileReaderChannel(std::string path);
  ~FileReaderChannel() override;

  void send(std::span<const std::uint8_t> data) override;  // always throws
  void recv(std::span<std::uint8_t> out) override;
  void set_timeout(std::chrono::milliseconds timeout) override { timeout_ = timeout; }
  void close() override;

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::size_t pos_ = 0;
  std::chrono::milliseconds timeout_{0};
};

}  // namespace hpm::net
