#include "xdr/wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/endian.hpp"
#include "obs/metrics.hpp"

namespace hpm::xdr {

namespace {

template <typename T>
void put_be(Bytes& buf, T v) {
  for (std::size_t i = sizeof(T); i-- > 0;) {
    buf.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
  }
}

/// Stream-granularity throughput instruments: one registry touch per
/// encoded/decoded stream keeps the per-field hot path untouched.
struct WireMetrics {
  obs::Counter& encode_bytes = obs::Registry::process().counter("xdr.encode.bytes");
  obs::Counter& encode_streams = obs::Registry::process().counter("xdr.encode.streams");
  obs::Counter& decode_bytes = obs::Registry::process().counter("xdr.decode.bytes");
  obs::Counter& decode_streams = obs::Registry::process().counter("xdr.decode.streams");
  obs::Histogram& encode_size =
      obs::Registry::process().histogram("xdr.encode.stream_bytes", obs::Unit::Bytes);

  static WireMetrics& get() {
    static WireMetrics m;
    return m;
  }
};

}  // namespace

Bytes Encoder::take() noexcept {
  if (!buf_.empty()) {
    WireMetrics& m = WireMetrics::get();
    m.encode_bytes.add(buf_.size());
    m.encode_streams.add(1);
    m.encode_size.record(static_cast<double>(buf_.size()));
  }
  return std::move(buf_);
}

Decoder::~Decoder() {
  if (counted_ && position() > 0) {
    WireMetrics& m = WireMetrics::get();
    m.decode_bytes.add(position());
    m.decode_streams.add(1);
  }
}

void Encoder::put_u16(std::uint16_t v) {
  room(2);
  put_be(buf_, v);
  if (sink_) maybe_flush();
}
void Encoder::put_u32(std::uint32_t v) {
  room(4);
  put_be(buf_, v);
  if (sink_) maybe_flush();
}
void Encoder::put_u64(std::uint64_t v) {
  room(8);
  put_be(buf_, v);
  if (sink_) maybe_flush();
}

void Encoder::put_f32(float v) { put_u32(std::bit_cast<std::uint32_t>(v)); }
void Encoder::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void Encoder::put_bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  room(len);
  buf_.insert(buf_.end(), p, p + len);
  if (sink_) maybe_flush();
}

void Encoder::put_string(std::string_view s) {
  if (s.size() > 0xFFFFFFFFull) throw WireError("string too long to encode");
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(s.data(), s.size());
}

void Encoder::patch_u32(std::size_t offset, std::uint32_t v) {
  if (offset + 4 > buf_.size()) throw WireError("patch_u32 out of range");
  if (offset < flushed_) {
    throw WireError("patch_u32 below sink watermark: bytes already flushed");
  }
  put_u32_be(buf_.data() + offset, v);
}

void Encoder::regrow(std::size_t n) {
  Bytes bigger;
  bigger.reserve(std::max(2 * buf_.capacity(), buf_.size() + n));
  bigger.assign(buf_.begin(), buf_.end());
  retired_.push_back(std::exchange(buf_, std::move(bigger)));
}

void Encoder::set_sink(std::size_t chunk_bytes, SinkFn fn) {
  if (chunk_bytes == 0) throw WireError("sink chunk size must be positive");
  sink_chunk_ = chunk_bytes;
  flushed_ = buf_.size();  // only bytes written from here on are chunked
  sink_ = std::move(fn);
}

void Encoder::maybe_flush() {
  while (buf_.size() - flushed_ >= sink_chunk_) {
    sink_(std::span<const std::uint8_t>(buf_.data() + flushed_, sink_chunk_));
    flushed_ += sink_chunk_;
  }
}

void Encoder::flush_sink() {
  if (!sink_) return;
  maybe_flush();
  if (buf_.size() > flushed_) {
    sink_(std::span<const std::uint8_t>(buf_.data() + flushed_, buf_.size() - flushed_));
    flushed_ = buf_.size();
  }
  sink_ = nullptr;
  sink_chunk_ = 0;
}

void Decoder::truncated(std::size_t n) const {
  throw WireError("truncated stream: need " + std::to_string(n) + " bytes at offset " +
                  std::to_string(position()) + ", have " + std::to_string(remaining()));
}

bool Decoder::advance(std::size_t wanted) {
  while (refill_ && refill_(wanted)) {
    if (!data_.empty()) return true;
  }
  return false;
}

void Decoder::get_bytes(void* out, std::size_t n) {
  // A bounded decoder fails before it consumes anything.
  if (!refill_ && n > remaining()) truncated(n);
  auto* dst = static_cast<std::uint8_t*>(out);
  while (n > 0) {
    if (pos_ == data_.size() && !advance(n)) truncated(n);
    const std::size_t k = std::min(n, remaining());
    std::memcpy(dst, data_.data() + pos_, k);
    pos_ += k;
    dst += k;
    n -= k;
  }
}

std::uint8_t Decoder::peek_u8() {
  if (pos_ == data_.size() && !advance(1)) truncated(1);
  return data_[pos_];
}

std::string Decoder::get_string() {
  const std::uint32_t len = get_u32();
  if (!refill_ && len > remaining()) truncated(len);
  // Appended segment by segment, so a hostile length allocates no more
  // than the bytes that actually arrive.
  std::string s;
  for (std::size_t left = len; left > 0;) {
    if (pos_ == data_.size() && !advance(left)) truncated(left);
    const std::size_t k = std::min<std::size_t>(left, remaining());
    s.append(reinterpret_cast<const char*>(data_.data() + pos_), k);
    pos_ += k;
    left -= k;
  }
  return s;
}

}  // namespace hpm::xdr
