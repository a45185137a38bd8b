#include "net/message.hpp"

#include <array>
#include <cstring>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "net/buffer_pool.hpp"
#include "obs/metrics.hpp"

namespace hpm::net {

namespace {

/// `net.frames.*` framing-layer counters. Frame byte totals include the
/// 5-byte header and 4-byte seal, so for a healthy run they equal
/// the underlying channel's byte counters exactly.
struct FrameMetrics {
  obs::Counter& sent = obs::Registry::process().counter("net.frames.sent");
  obs::Counter& recv = obs::Registry::process().counter("net.frames.recv");
  obs::Counter& bytes_sent = obs::Registry::process().counter("net.frames.bytes_sent");
  obs::Counter& bytes_recv = obs::Registry::process().counter("net.frames.bytes_recv");
  obs::Counter& seal_failures = obs::Registry::process().counter("net.frames.seal_failures");

  static FrameMetrics& get() {
    static FrameMetrics m;
    return m;
  }
};

void put_u32_be(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>((v >> 24) & 0xFFu);
  out[1] = static_cast<std::uint8_t>((v >> 16) & 0xFFu);
  out[2] = static_cast<std::uint8_t>((v >> 8) & 0xFFu);
  out[3] = static_cast<std::uint8_t>(v & 0xFFu);
}

std::uint32_t get_u32_be(const std::uint8_t* in) {
  return (static_cast<std::uint32_t>(in[0]) << 24) |
         (static_cast<std::uint32_t>(in[1]) << 16) |
         (static_cast<std::uint32_t>(in[2]) << 8) | static_cast<std::uint32_t>(in[3]);
}

/// Payload bytes before a StateChunk's body: the u32 seq.
constexpr std::size_t kSeqBytes = 4;
/// A StateChunk frame's sealed head: type, length and seq.
constexpr std::size_t kChunkHead = 5 + kSeqBytes;

/// The seal of a StateChunk frame from its head and its body's digest.
std::uint32_t chunk_seal(std::span<const std::uint8_t, kChunkHead> head,
                         std::uint64_t body_digest) noexcept {
  std::array<std::uint8_t, kChunkHead + 8> sealed{};
  std::memcpy(sealed.data(), head.data(), kChunkHead);
  for (int i = 0; i < 8; ++i) {
    sealed[kChunkHead + i] = static_cast<std::uint8_t>(body_digest >> (56 - 8 * i));
  }
  return fold32(StreamDigest::of(sealed));
}

/// Acquire a pooled frame of `payload_len` payload bytes with its type and
/// length written; the caller fills the payload, seals and ships it.
Bytes open_frame(MsgType type, std::size_t payload_len) {
  Bytes frame = BufferPool::process().acquire(5 + payload_len + 4);
  frame[0] = static_cast<std::uint8_t>(type);
  put_u32_be(frame.data() + 1, static_cast<std::uint32_t>(payload_len));
  return frame;
}

void ship_frame(ByteChannel& ch, Bytes frame) {
  const std::size_t total = frame.size();
  ch.send(frame);
  BufferPool::process().release(std::move(frame));
  FrameMetrics& m = FrameMetrics::get();
  m.sent.add(1);
  m.bytes_sent.add(total);
}

}  // namespace

void seal_frame(std::span<std::uint8_t> frame) noexcept {
  const std::size_t body = frame.size() - 4;
  std::uint32_t seal = 0;
  if (frame[0] == static_cast<std::uint8_t>(MsgType::StateChunk) && body >= kChunkHead) {
    const std::uint64_t d = StreamDigest::of(frame.subspan(kChunkHead, body - kChunkHead));
    seal = chunk_seal(frame.first<kChunkHead>(), d);
  } else {
    seal = fold32(StreamDigest::of(frame.first(body)));
  }
  put_u32_be(frame.data() + body, seal);
}

void send_message(ByteChannel& ch, MsgType type, std::span<const std::uint8_t> payload) {
  // One pooled buffer and a single channel send per frame: chunked
  // transfers emit thousands of frames per migration, so per-frame
  // allocation and triple syscalls both matter.
  Bytes frame = open_frame(type, payload.size());
  if (!payload.empty()) std::memcpy(frame.data() + 5, payload.data(), payload.size());
  seal_frame(frame);
  ship_frame(ch, std::move(frame));
}

void send_state_chunk(ByteChannel& ch, std::uint32_t seq, std::span<const std::uint8_t> body,
                      std::uint64_t body_digest) {
  Bytes frame = open_frame(MsgType::StateChunk, kSeqBytes + body.size());
  put_u32_be(frame.data() + 5, seq);
  if (!body.empty()) std::memcpy(frame.data() + kChunkHead, body.data(), body.size());
  put_u32_be(frame.data() + frame.size() - 4,
             chunk_seal(std::span<const std::uint8_t>(frame).first<kChunkHead>(), body_digest));
  ship_frame(ch, std::move(frame));
}

Message recv_message(ByteChannel& ch, std::size_t max_payload) {
  // The type byte is vetted before anything else of the frame is read.
  std::array<std::uint8_t, 5> head{};
  ch.recv(std::span(head).first(1));
  const std::uint8_t raw_type = head[0];
  if (raw_type < 1 || raw_type > kMaxMsgType) {
    throw NetError("malformed frame: unknown message type " + std::to_string(raw_type));
  }
  if (raw_type == 6 || raw_type == 10 || raw_type == 16 || raw_type == 17) {
    throw NetError("malformed frame: reserved message type " + std::to_string(raw_type) +
                   " (a retired frame)");
  }
  ch.recv(std::span(head).subspan(1));
  const std::uint32_t len = get_u32_be(head.data() + 1);
  // Validate the (possibly hostile or corrupted) length prefix before a
  // single byte is allocated for it.
  if (len > max_payload) {
    throw NetError("frame payload of " + std::to_string(len) + " bytes exceeds the " +
                   std::to_string(max_payload) + "-byte limit");
  }
  Message msg;
  msg.type = static_cast<MsgType>(raw_type);
  msg.payload.resize(len);
  if (len > 0) ch.recv(msg.payload);
  std::array<std::uint8_t, 4> trailer{};
  ch.recv(trailer);
  // One pass over the payload either way: a StateChunk's body digest is
  // both what its seal folds in and what the receiver keeps.
  std::uint32_t seal = 0;
  if (msg.type == MsgType::StateChunk && len >= kSeqBytes) {
    msg.body_digest = StreamDigest::of(std::span(msg.payload).subspan(kSeqBytes));
    std::array<std::uint8_t, kChunkHead> chunk_head{};
    std::memcpy(chunk_head.data(), head.data(), head.size());
    std::memcpy(chunk_head.data() + head.size(), msg.payload.data(), kSeqBytes);
    seal = chunk_seal(chunk_head, msg.body_digest);
  } else {
    StreamDigest digest;
    digest.update(head);
    digest.update(msg.payload);
    seal = fold32(digest.value());
  }
  if (get_u32_be(trailer.data()) != seal) {
    FrameMetrics::get().seal_failures.add(1);
    throw NetError("frame seal mismatch: " + std::to_string(len) +
                   "-byte payload damaged in transit");
  }
  FrameMetrics& m = FrameMetrics::get();
  m.recv.add(1);
  m.bytes_recv.add(head.size() + msg.payload.size() + trailer.size());
  return msg;
}

namespace {

void put_u64_be(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>((v >> (8 * (7 - i))) & 0xFFu);
  }
}

std::uint64_t get_u64_be(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | in[i];
  return v;
}

}  // namespace

Bytes encode_state_begin(const StateBeginInfo& info) {
  Bytes payload(16);
  put_u32_be(payload.data(), info.chunk_bytes);
  put_u64_be(payload.data() + 4, info.txn_id);
  put_u32_be(payload.data() + 12, info.incarnation);
  return payload;
}

Bytes encode_state_chunk(std::uint32_t seq, std::span<const std::uint8_t> bytes) {
  Bytes payload(4 + bytes.size());
  put_u32_be(payload.data(), seq);
  if (!bytes.empty()) std::memcpy(payload.data() + 4, bytes.data(), bytes.size());
  return payload;
}

Bytes encode_state_end(const StateEndInfo& info) {
  Bytes payload(20);
  put_u32_be(payload.data(), info.chunk_count);
  put_u64_be(payload.data() + 4, info.total_bytes);
  put_u64_be(payload.data() + 12, info.digest);
  return payload;
}

StateBeginInfo decode_state_begin(const Bytes& payload) {
  if (payload.size() != 16) throw NetError("malformed StateBegin payload");
  StateBeginInfo info;
  info.chunk_bytes = get_u32_be(payload.data());
  info.txn_id = get_u64_be(payload.data() + 4);
  info.incarnation = get_u32_be(payload.data() + 12);
  return info;
}

std::uint32_t decode_state_chunk_seq(const Bytes& payload) {
  if (payload.size() < 4) throw NetError("malformed StateChunk payload");
  return get_u32_be(payload.data());
}

StateEndInfo decode_state_end(const Bytes& payload) {
  if (payload.size() != 20) throw NetError("malformed StateEnd payload");
  StateEndInfo info;
  info.chunk_count = get_u32_be(payload.data());
  info.total_bytes = get_u64_be(payload.data() + 4);
  info.digest = get_u64_be(payload.data() + 12);
  return info;
}

Bytes encode_txn_token(const TxnTokenInfo& info) {
  Bytes payload(12);
  put_u64_be(payload.data(), info.txn_id);
  put_u32_be(payload.data() + 8, info.incarnation);
  return payload;
}

TxnTokenInfo decode_txn_token(const Bytes& payload) {
  if (payload.size() != 12) throw NetError("malformed transaction-token payload");
  TxnTokenInfo info;
  info.txn_id = get_u64_be(payload.data());
  info.incarnation = get_u32_be(payload.data() + 8);
  return info;
}

Bytes encode_prepare_ack(const PrepareAckInfo& info) {
  Bytes payload(20);
  put_u64_be(payload.data(), info.txn_id);
  put_u64_be(payload.data() + 8, info.digest);
  put_u32_be(payload.data() + 16, info.incarnation);
  return payload;
}

PrepareAckInfo decode_prepare_ack(const Bytes& payload) {
  if (payload.size() != 20) throw NetError("malformed PrepareAck payload");
  PrepareAckInfo info;
  info.txn_id = get_u64_be(payload.data());
  info.digest = get_u64_be(payload.data() + 8);
  info.incarnation = get_u32_be(payload.data() + 16);
  return info;
}

Bytes encode_resume_hello(const ResumeHelloInfo& info) {
  Bytes payload(13);
  payload[0] = info.version;
  put_u64_be(payload.data() + 1, info.txn_id);
  put_u32_be(payload.data() + 9, info.next_seq);
  return payload;
}

ResumeHelloInfo decode_resume_hello(const Bytes& payload) {
  if (payload.size() != 13) throw NetError("malformed ResumeHello payload");
  ResumeHelloInfo info;
  info.version = payload[0];
  info.txn_id = get_u64_be(payload.data() + 1);
  info.next_seq = get_u32_be(payload.data() + 9);
  return info;
}

Bytes encode_manifest_begin(const ManifestBeginInfo& info) {
  Bytes payload(17);
  put_u64_be(payload.data(), info.txn_id);
  put_u32_be(payload.data() + 8, info.chunk_count);
  put_u32_be(payload.data() + 12, info.chunk_bytes);
  payload[16] = info.codec_caps;
  return payload;
}

ManifestBeginInfo decode_manifest_begin(const Bytes& payload) {
  if (payload.size() != 17) throw NetError("malformed ManifestBegin payload");
  ManifestBeginInfo info;
  info.txn_id = get_u64_be(payload.data());
  info.chunk_count = get_u32_be(payload.data() + 8);
  info.chunk_bytes = get_u32_be(payload.data() + 12);
  info.codec_caps = payload[16];
  return info;
}

Bytes encode_manifest_chunk(std::uint32_t first_index, std::span<const ManifestEntry> entries) {
  Bytes payload(8 + entries.size() * 12);
  put_u32_be(payload.data(), first_index);
  put_u32_be(payload.data() + 4, static_cast<std::uint32_t>(entries.size()));
  std::uint8_t* out = payload.data() + 8;
  for (const ManifestEntry& e : entries) {
    put_u64_be(out, e.digest);
    put_u32_be(out + 8, e.length);
    out += 12;
  }
  return payload;
}

ManifestChunkInfo decode_manifest_chunk(const Bytes& payload) {
  if (payload.size() < 8) throw NetError("malformed ManifestChunk payload");
  ManifestChunkInfo info;
  info.first_index = get_u32_be(payload.data());
  const std::uint32_t count = get_u32_be(payload.data() + 4);
  // The declared count must match the byte length exactly: a hostile
  // count can neither over-read the payload nor drive the reserve below
  // past what actually arrived (the frame layer already bounded that).
  if (payload.size() != 8 + static_cast<std::size_t>(count) * 12) {
    throw NetError("malformed ManifestChunk payload: " + std::to_string(count) +
                   " entries declared in " + std::to_string(payload.size()) + " bytes");
  }
  info.entries.reserve(count);
  const std::uint8_t* in = payload.data() + 8;
  for (std::uint32_t i = 0; i < count; ++i) {
    ManifestEntry e;
    e.digest = get_u64_be(in);
    e.length = get_u32_be(in + 8);
    info.entries.push_back(e);
    in += 12;
  }
  return info;
}

Bytes encode_manifest_ack(const ManifestAckInfo& info) {
  Bytes payload(5 + info.misses.size() * 4);
  payload[0] = info.codec;
  put_u32_be(payload.data() + 1, static_cast<std::uint32_t>(info.misses.size()));
  std::uint8_t* out = payload.data() + 5;
  for (const std::uint32_t idx : info.misses) {
    put_u32_be(out, idx);
    out += 4;
  }
  return payload;
}

ManifestAckInfo decode_manifest_ack(const Bytes& payload) {
  if (payload.size() < 5) throw NetError("malformed ManifestAck payload");
  ManifestAckInfo info;
  info.codec = payload[0];
  const std::uint32_t count = get_u32_be(payload.data() + 1);
  if (payload.size() != 5 + static_cast<std::size_t>(count) * 4) {
    throw NetError("malformed ManifestAck payload: " + std::to_string(count) +
                   " misses declared in " + std::to_string(payload.size()) + " bytes");
  }
  info.misses.reserve(count);
  const std::uint8_t* in = payload.data() + 5;
  for (std::uint32_t i = 0; i < count; ++i) {
    info.misses.push_back(get_u32_be(in));
    in += 4;
  }
  return info;
}

Bytes encode_state_chunk_coded(std::uint32_t seq, std::uint8_t codec_tag,
                               std::span<const std::uint8_t> body) {
  Bytes payload(5 + body.size());
  put_u32_be(payload.data(), seq);
  payload[4] = codec_tag;
  if (!body.empty()) std::memcpy(payload.data() + 5, body.data(), body.size());
  return payload;
}

}  // namespace hpm::net
