#include "xdr/wire.hpp"

#include <bit>
#include <cstring>

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
  if (counted_ && pos_ > 0) {
    WireMetrics& m = WireMetrics::get();
    m.decode_bytes.add(pos_);
    m.decode_streams.add(1);
  }
}

void Encoder::put_u16(std::uint16_t v) {
  put_be(buf_, v);
  if (sink_) maybe_flush();
}
void Encoder::put_u32(std::uint32_t v) {
  put_be(buf_, v);
  if (sink_) maybe_flush();
}
void Encoder::put_u64(std::uint64_t v) {
  put_be(buf_, v);
  if (sink_) maybe_flush();
}

void Encoder::put_f32(float v) { put_u32(std::bit_cast<std::uint32_t>(v)); }
void Encoder::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void Encoder::put_bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
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
  for (std::size_t i = 0; i < 4; ++i) {
    buf_[offset + i] = static_cast<std::uint8_t>((v >> (8 * (3 - i))) & 0xFFu);
  }
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

void Decoder::need(std::size_t n) {
  while (pos_ + n > data_.size()) {
    if (refill_ && refill_(pos_ + n)) continue;
    throw WireError("truncated stream: need " + std::to_string(n) + " bytes at offset " +
                    std::to_string(pos_) + ", have " + std::to_string(data_.size() - pos_));
  }
}

std::uint8_t Decoder::get_u8() {
  need(1);
  return data_[pos_++];
}

std::uint8_t Decoder::peek_u8() {
  need(1);
  return data_[pos_];
}

std::uint16_t Decoder::get_u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t Decoder::get_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

std::uint64_t Decoder::get_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

float Decoder::get_f32() { return std::bit_cast<float>(get_u32()); }
double Decoder::get_f64() { return std::bit_cast<double>(get_u64()); }

void Decoder::get_bytes(void* out, std::size_t len) {
  need(len);
  std::memcpy(out, data_.data() + pos_, len);
  pos_ += len;
}

std::string Decoder::get_string() {
  const std::uint32_t len = get_u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

}  // namespace hpm::xdr
