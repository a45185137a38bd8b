// Canonical (machine-independent) stream encoding — the paper's layer 2.
//
// The external data representation is XDR-like: big-endian, fixed-width
// fields, IEEE-754 bit images for floats. Unlike ONC XDR we do not pad
// every field to 4 bytes; widths follow canonical_size() so large numeric
// workloads (linpack matrices) stream densely.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/hexdump.hpp"

namespace hpm::xdr {

/// Append-only canonical encoder. All multi-byte integers are written
/// big-endian regardless of the host.
///
/// An optional *sink* turns the encoder into a chunked producer: once
/// `set_sink(chunk_bytes, fn)` is armed, every time `chunk_bytes` of new
/// output accumulate past the flush watermark the sink is handed one
/// fixed-size chunk. Flushed bytes stay in the buffer (the watermark just
/// advances), so `bytes()`/`take()` still see the complete stream — the
/// pipelined coordinator relies on that to retry serially from the
/// retained copy.
///
/// A chunk handed to the sink never moves: with a sink armed, a buffer
/// that must grow is copied into a larger one and kept until the encoder
/// dies. So a sink may queue spans while the encoder and the Bytes take()
/// returns both live.
class Encoder {
 public:
  using SinkFn = std::function<void(std::span<const std::uint8_t>)>;

  Encoder() = default;
  explicit Encoder(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  void put_u8(std::uint8_t v) {
    room(1);
    buf_.push_back(v);
    if (sink_) maybe_flush();
  }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i8(std::int8_t v) { put_u8(static_cast<std::uint8_t>(v)); }
  void put_i16(std::int16_t v) { put_u16(static_cast<std::uint16_t>(v)); }
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f32(float v);
  void put_f64(double v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  /// Raw bytes, verbatim.
  void put_bytes(const void* data, std::size_t len);

  /// Length-prefixed (u32) string.
  void put_string(std::string_view s);

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const Bytes& bytes() const noexcept { return buf_; }
  /// Hand the finished stream to the caller. Records the stream size
  /// under `xdr.encode.bytes` / `xdr.encode.streams` so encode throughput
  /// is derivable from the registry without touching the per-put path.
  Bytes take() noexcept;

  /// Patch a previously written u32 at `offset` (used for counts known
  /// only after the payload is emitted). With a sink armed, patching
  /// below the flush watermark throws — those bytes are already on the
  /// wire.
  void patch_u32(std::size_t offset, std::uint32_t v);

  /// Arm chunked production: every `chunk_bytes` of new output past the
  /// watermark are handed to `fn` as one chunk. Bytes already in the
  /// buffer are below the watermark and are NOT replayed — arm the sink
  /// before the bytes you want chunked.
  void set_sink(std::size_t chunk_bytes, SinkFn fn);

  /// Hand any sub-chunk remainder above the watermark to the sink and
  /// disarm it. No-op when no sink is armed.
  void flush_sink();

 private:
  void maybe_flush();
  /// Make room for `n` more bytes without moving a flushed chunk.
  void room(std::size_t n) {
    if (sink_ && buf_.capacity() - buf_.size() < n) [[unlikely]] regrow(n);
  }
  void regrow(std::size_t n);

  Bytes buf_;
  std::vector<Bytes> retired_;  ///< superseded buffers a sink may still point into
  SinkFn sink_;
  std::size_t sink_chunk_ = 0;
  std::size_t flushed_ = 0;
};

/// Bounds-checked canonical decoder over a borrowed byte span.
/// Every read past the end throws hpm::WireError.
///
/// An optional *refill* callback turns the decoder into an incremental
/// consumer of a stream that arrives in segments (the received chunks of
/// a pipelined transfer): when a read runs past the end of the current
/// segment, the callback hands over the next one with next_segment().
/// Only if it returns false does the decoder throw. A read that straddles
/// segments is copied piecewise: get_bytes() straight into its output,
/// a primitive through a few stitched bytes.
class Decoder {
 public:
  /// Called once the current segment is consumed, with the bytes the
  /// pending read still needs. Must call next_segment() with the stream's
  /// next segment (blocking until it exists) and return true, or return
  /// false to signal the stream truly ended.
  using RefillFn = std::function<bool(std::size_t wanted)>;

  explicit Decoder(std::span<const std::uint8_t> data) noexcept : data_(data) {}
  /// `counted = false` records nothing under `xdr.decode.*`: for a peek at
  /// a header ahead of the decoder that reads the whole stream.
  Decoder(std::span<const std::uint8_t> data, bool counted) noexcept
      : data_(data), counted_(counted) {}
  Decoder(const void* data, std::size_t len) noexcept
      : data_(static_cast<const std::uint8_t*>(data), len) {}
  /// Records the bytes consumed under `xdr.decode.bytes` /
  /// `xdr.decode.streams` (untouched decoders record nothing).
  ~Decoder();

  std::uint8_t get_u8() {
    if (pos_ < data_.size()) [[likely]] return data_[pos_++];
    std::uint8_t v = 0;
    get_bytes(&v, 1);
    return v;
  }
  std::uint16_t get_u16() { return static_cast<std::uint16_t>(get_be<2>()); }
  std::uint32_t get_u32() { return static_cast<std::uint32_t>(get_be<4>()); }
  std::uint64_t get_u64() { return get_be<8>(); }
  std::int8_t get_i8() { return static_cast<std::int8_t>(get_u8()); }
  std::int16_t get_i16() { return static_cast<std::int16_t>(get_u16()); }
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  float get_f32() { return std::bit_cast<float>(get_u32()); }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
  bool get_bool() { return get_u8() != 0; }

  /// Copies piecewise across segments, refilling as each runs out: the
  /// slow path of every read.
  void get_bytes(void* out, std::size_t len);
  std::string get_string();

  /// Bytes consumed since the start of the stream, across segments.
  [[nodiscard]] std::size_t position() const noexcept { return base_ + pos_; }
  /// Bytes left in the current segment: what is left to decode when
  /// bounded().
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }
  /// True when the current view is the whole stream (no refill armed), so
  /// remaining() is exactly what is left to decode.
  [[nodiscard]] bool bounded() const noexcept { return !refill_; }

  /// Peek at the next byte without consuming it.
  std::uint8_t peek_u8();

  /// Arm incremental refill (see RefillFn). Pass an empty function to
  /// disarm.
  void set_refill(RefillFn fn) { refill_ = std::move(fn); }

  /// Continue the stream in `segment`, once the current one is consumed;
  /// position() keeps counting from the stream's start.
  void next_segment(std::span<const std::uint8_t> segment) noexcept {
    base_ += data_.size();
    data_ = segment;
    pos_ = 0;
  }

 private:
  template <std::size_t N>
  std::uint64_t get_be() {
    const std::uint8_t* p = data_.data() + pos_;
    std::uint8_t stitched[N];
    if (pos_ + N <= data_.size()) [[likely]] {
      pos_ += N;
    } else {
      get_bytes(stitched, N);
      p = stitched;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < N; ++i) v = (v << 8) | p[i];
    return v;
  }
  /// Move to the next non-empty segment; false at the end of the stream.
  bool advance(std::size_t wanted);
  [[noreturn]] void truncated(std::size_t n) const;

  std::span<const std::uint8_t> data_;  ///< the current segment
  std::size_t pos_ = 0;                 ///< read position in data_
  std::size_t base_ = 0;                ///< stream offset of data_[0]
  bool counted_ = true;
  RefillFn refill_;
};

}  // namespace hpm::xdr
