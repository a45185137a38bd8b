// Transport layer: channels, framing, and the Ethernet link model.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "net/faulty_channel.hpp"
#include "net/file_channel.hpp"
#include "net/mem_channel.hpp"
#include "net/message.hpp"
#include "net/simnet.hpp"
#include "net/socket_channel.hpp"
#include "obs/metrics.hpp"
#include "support/crc32_reference.hpp"

namespace hpm::net {
namespace {

Bytes make_payload(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return b;
}

TEST(MemChannel, BytesFlowBothDirections) {
  auto [a, b] = MemChannel::make_pair();
  const Bytes out = make_payload(1000);
  a->send(out);
  Bytes in(1000);
  b->recv(in);
  EXPECT_EQ(in, out);
  b->send(out);
  Bytes back(1000);
  a->recv(back);
  EXPECT_EQ(back, out);
}

TEST(MemChannel, RecvBlocksUntilDataArrives) {
  auto [a, b] = MemChannel::make_pair();
  Bytes in(4);
  std::thread reader([&] { b->recv(in); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const Bytes out = {1, 2, 3, 4};
  a->send(out);
  reader.join();
  EXPECT_EQ(in, out);
}

TEST(MemChannel, CloseWithPendingReadThrows) {
  auto [a, b] = MemChannel::make_pair();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    a->close();
  });
  Bytes in(10);
  EXPECT_THROW(b->recv(in), NetError);
  closer.join();
}

TEST(SocketChannel, LoopbackRoundTrip) {
  SocketListener listener;
  std::unique_ptr<SocketChannel> server;
  std::thread acceptor([&] { server = listener.accept(); });
  auto client = connect_to(listener.port());
  acceptor.join();
  const Bytes out = make_payload(100000);
  std::thread sender([&] { client->send(out); });
  Bytes in(100000);
  server->recv(in);
  sender.join();
  EXPECT_EQ(in, out);
  client->close();
  Bytes more(1);
  EXPECT_THROW(server->recv(more), NetError);  // orderly EOF detected
}

TEST(MemChannel, RecvHonorsDeadline) {
  auto [a, b] = MemChannel::make_pair();
  b->set_timeout(std::chrono::milliseconds(30));
  Bytes in(4);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(b->recv(in), TimeoutError);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(5));  // bounded, not a hang
  // A TimeoutError is still a NetError for transport-boundary handlers.
  b->set_timeout(std::chrono::milliseconds(10));
  EXPECT_THROW(b->recv(in), NetError);
  (void)a;
}

TEST(SocketChannel, RecvHonorsDeadline) {
  SocketListener listener;
  std::unique_ptr<SocketChannel> server;
  std::thread acceptor([&] { server = listener.accept(); });
  auto client = connect_to(listener.port());
  acceptor.join();
  server->set_timeout(std::chrono::milliseconds(30));
  Bytes in(4);
  EXPECT_THROW(server->recv(in), TimeoutError);
  // The channel is still usable after a timeout: late data gets through.
  const Bytes out = {9, 8, 7, 6};
  client->send(out);
  server->recv(in);
  EXPECT_EQ(in, out);
}

TEST(SocketChannel, CloseIsIdempotentAndIoAfterCloseThrows) {
  SocketListener listener;
  std::unique_ptr<SocketChannel> server;
  std::thread acceptor([&] { server = listener.accept(); });
  auto client = connect_to(listener.port());
  acceptor.join();
  client->close();
  client->close();  // second close must be a no-op, not a double-close of the fd
  const Bytes out = {1};
  EXPECT_THROW(client->send(out), NetError);
  Bytes in(1);
  EXPECT_THROW(client->recv(in), NetError);
}

TEST(SocketChannel, ConnectToClosedPortFails) {
  std::uint16_t dead_port;
  {
    SocketListener listener;
    dead_port = listener.port();
  }
  EXPECT_THROW(connect_to(dead_port), NetError);
}

TEST(FileChannel, SpoolCarriesBytesAcross) {
  const std::string path = "/tmp/hpm_net_test_spool.bin";
  std::remove(path.c_str());
  std::remove((path + ".done").c_str());
  const Bytes out = make_payload(50000);
  FileWriterChannel writer(path);
  FileReaderChannel reader(path);
  std::thread producer([&] {
    writer.send(std::span<const std::uint8_t>(out.data(), 20000));
    writer.send(std::span<const std::uint8_t>(out.data() + 20000, 30000));
    writer.close();
  });
  Bytes in(50000);
  reader.recv(in);
  producer.join();
  EXPECT_EQ(in, out);
}

TEST(FileChannel, ShortSpoolIsDetected) {
  const std::string path = "/tmp/hpm_net_test_short.bin";
  std::remove(path.c_str());
  std::remove((path + ".done").c_str());
  {
    FileWriterChannel writer(path);
    const Bytes out = make_payload(10);
    writer.send(out);
    writer.close();
  }
  FileReaderChannel reader(path);
  Bytes in(20);  // wants more than was written
  EXPECT_THROW(reader.recv(in), NetError);
}

TEST(FileChannel, DirectionsAreEnforced) {
  const std::string path = "/tmp/hpm_net_test_dir.bin";
  std::remove(path.c_str());
  FileWriterChannel writer(path);
  Bytes buf(1);
  EXPECT_THROW(writer.recv(buf), NetError);
  FileReaderChannel reader(path);
  EXPECT_THROW(reader.send(buf), NetError);
}

TEST(FileChannel, ReaderRecvHonorsDeadline) {
  const std::string path = "/tmp/hpm_net_test_deadline.bin";
  std::remove(path.c_str());
  std::remove((path + ".done").c_str());
  FileReaderChannel reader(path);  // no writer will ever show up
  reader.set_timeout(std::chrono::milliseconds(30));
  Bytes in(8);
  EXPECT_THROW(reader.recv(in), TimeoutError);
}

TEST(FileChannel, AbortLeavesNoDoneMarker) {
  const std::string path = "/tmp/hpm_net_test_abort.bin";
  std::remove(path.c_str());
  std::remove((path + ".done").c_str());
  {
    FileWriterChannel writer(path);
    const Bytes out = make_payload(16);
    writer.send(out);
    writer.abort();  // crash-style teardown
  }  // destructor must not resurrect the marker
  FileReaderChannel reader(path);
  reader.set_timeout(std::chrono::milliseconds(30));
  Bytes in(32);
  EXPECT_THROW(reader.recv(in), TimeoutError);  // stream never completes
  std::remove(path.c_str());
}

TEST(Message, FramingRoundTrips) {
  auto [a, b] = MemChannel::make_pair();
  const Bytes payload = make_payload(333);
  send_message(*a, MsgType::State, payload);
  const Message msg = recv_message(*b);
  EXPECT_EQ(msg.type, MsgType::State);
  EXPECT_EQ(msg.payload, payload);
}

TEST(Message, EmptyPayloadIsLegal) {
  auto [a, b] = MemChannel::make_pair();
  send_message(*a, MsgType::Ack, {});
  const Message msg = recv_message(*b);
  EXPECT_EQ(msg.type, MsgType::Ack);
  EXPECT_TRUE(msg.payload.empty());
}

TEST(Message, UnknownTypeTagIsRejected) {
  auto [a, b] = MemChannel::make_pair();
  const Bytes junk = {0x7F, 0, 0, 0, 0};
  a->send(junk);
  EXPECT_THROW(recv_message(*b), NetError);
}

TEST(Message, OversizedFrameIsRejected) {
  auto [a, b] = MemChannel::make_pair();
  const Bytes header = {static_cast<std::uint8_t>(MsgType::State), 0x40, 0, 0, 0};
  a->send(header);
  EXPECT_THROW(recv_message(*b, /*max_payload=*/1 << 20), NetError);
}

TEST(Message, HostileLengthPrefixIsRejectedBeforeAllocation) {
  auto [a, b] = MemChannel::make_pair();
  // A 2 GiB - 1 length prefix: under the old 1ull << 31 default this
  // passed validation and attempted the allocation; the default cap must
  // reject it outright.
  const Bytes header = {static_cast<std::uint8_t>(MsgType::State), 0x7F, 0xFF, 0xFF, 0xFF};
  a->send(header);
  EXPECT_THROW(recv_message(*b), NetError);
}

/// Append `seal` big-endian: a frame's 4-byte trailer.
void put_trailer(Bytes& frame, std::uint32_t seal) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    frame.push_back(static_cast<std::uint8_t>((seal >> shift) & 0xFFu));
  }
}

/// A frame built by hand and sealed as protocol v8 seals it:
/// fold32 of the StreamDigest over everything before the trailer.
Bytes frame_bytes(MsgType type, const Bytes& payload) {
  Bytes frame;
  frame.push_back(static_cast<std::uint8_t>(type));
  const auto len = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<std::uint8_t>((len >> 24) & 0xFFu));
  frame.push_back(static_cast<std::uint8_t>((len >> 16) & 0xFFu));
  frame.push_back(static_cast<std::uint8_t>((len >> 8) & 0xFFu));
  frame.push_back(static_cast<std::uint8_t>(len & 0xFFu));
  frame.insert(frame.end(), payload.begin(), payload.end());
  put_trailer(frame, fold32(StreamDigest::of(frame)));
  return frame;
}

TEST(Message, CorruptedPayloadFailsTheFrameSeal) {
  auto [a, b] = MemChannel::make_pair();
  Bytes frame = frame_bytes(MsgType::State, make_payload(100));
  frame[5 + 40] ^= 0x01u;  // flip one payload bit in transit
  a->send(frame);
  try {
    recv_message(*b);
    FAIL() << "damaged frame was accepted";
  } catch (const NetError& e) {
    EXPECT_NE(std::string(e.what()).find("seal"), std::string::npos);
  }
}

TEST(Message, IntactHandCraftedFramePassesTheFrameSeal) {
  auto [a, b] = MemChannel::make_pair();
  const Bytes payload = make_payload(100);
  a->send(frame_bytes(MsgType::State, payload));
  const Message msg = recv_message(*b);
  EXPECT_EQ(msg.type, MsgType::State);
  EXPECT_EQ(msg.payload, payload);
}

TEST(Message, RetiredTagsAreRejected) {
  // Tags 6 and 10 were Nack and StateAck up to protocol v8, 16 and 17 the
  // protocol-v6 Ping/Pong frames: reserved now, so even an intact frame
  // carrying one is malformed.
  for (const std::uint8_t reserved :
       {std::uint8_t{6}, std::uint8_t{10}, std::uint8_t{16}, std::uint8_t{17}}) {
    SCOPED_TRACE("tag " + std::to_string(reserved));
    auto [a, b] = MemChannel::make_pair();
    a->send(frame_bytes(static_cast<MsgType>(reserved), make_payload(12)));
    EXPECT_THROW(recv_message(*b), NetError);
  }
}

TEST(Message, PreIncarnationPayloadLayoutsAreTypedErrors) {
  // StateBegin, Prepare/Commit/Abort and PrepareAck without the
  // incarnation field: the full layouts decode, the short ones do not.
  const Bytes begin = encode_state_begin({.chunk_bytes = 512, .txn_id = 9, .incarnation = 3});
  const Bytes token = encode_txn_token({.txn_id = 9, .incarnation = 3});
  const Bytes ack = encode_prepare_ack({.txn_id = 9, .digest = 5, .incarnation = 3});
  ASSERT_EQ(begin.size(), 16u);
  ASSERT_EQ(token.size(), 12u);
  ASSERT_EQ(ack.size(), 20u);
  EXPECT_EQ(decode_state_begin(begin).incarnation, 3u);
  EXPECT_EQ(decode_txn_token(token).incarnation, 3u);
  EXPECT_EQ(decode_prepare_ack(ack).incarnation, 3u);
  EXPECT_THROW(decode_state_begin(Bytes(begin.begin(), begin.begin() + 12)), NetError);
  EXPECT_THROW(decode_txn_token(Bytes(token.begin(), token.begin() + 8)), NetError);
  EXPECT_THROW(decode_prepare_ack(Bytes(ack.begin(), ack.begin() + 16)), NetError);
}

// A Prepare frame (txn 9, incarnation 3) exactly as protocol v7 sent it:
// the same header and payload, sealed by CRC-32 72 c6 6f 97.
constexpr std::uint8_t kV7PrepareFrame[] = {
    0x0b, 0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x09, 0x00, 0x00, 0x00, 0x03, 0x72, 0xc6, 0x6f, 0x97,
};

TEST(Message, ACrcSealedV7FrameIsATypedError) {
  const Bytes v7(std::begin(kV7PrepareFrame), std::end(kV7PrepareFrame));
  ASSERT_EQ(test::crc32_reference(v7.data(), v7.size() - 4), 0x72c66f97u);
  const Bytes v8 =
      frame_bytes(MsgType::Prepare, encode_txn_token({.txn_id = 9, .incarnation = 3}));
  ASSERT_TRUE(std::equal(v8.begin(), v8.end() - 4, v7.begin())) << "only the trailer differs";

  obs::Counter& failures = obs::Registry::process().counter("net.frames.seal_failures");
  const std::uint64_t before = failures.value();
  auto [a, b] = MemChannel::make_pair();
  a->send(v7);
  try {
    recv_message(*b);
    FAIL() << "a v7 frame was accepted";
  } catch (const NetError& e) {
    EXPECT_NE(std::string(e.what()).find("seal"), std::string::npos) << e.what();
  }
  EXPECT_EQ(failures.value(), before + 1);
}

/// Reads one buffer back through ByteChannel::recv and fails typed at its
/// end, like a peer that closed: each damaged copy of a frame replays
/// through the real receive path without a thread or a lock.
class ReplayChannel final : public ByteChannel {
 public:
  explicit ReplayChannel(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  void send(std::span<const std::uint8_t>) override { throw NetError("replay only"); }
  void recv(std::span<std::uint8_t> out) override {
    if (bytes_.size() - pos_ < out.size()) throw NetError("end of replayed bytes");
    std::memcpy(out.data(), bytes_.data() + pos_, out.size());
    pos_ += out.size();
  }
  void set_timeout(std::chrono::milliseconds) override {}
  void close() override {}

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Collects what one send call puts on the wire: exactly one frame.
class CaptureChannel final : public ByteChannel {
 public:
  void send(std::span<const std::uint8_t> data) override {
    bytes.insert(bytes.end(), data.begin(), data.end());
  }
  void recv(std::span<std::uint8_t>) override { throw NetError("capture only"); }
  void set_timeout(std::chrono::milliseconds) override {}
  void close() override {}

  Bytes bytes;
};

TEST(Message, EveryShortCorruptionOfARepresentativeFrameIsATypedError) {
  // The seal is a 32-bit fold of a hash, not a CRC, so no burst length is
  // caught by construction: this enumerates the damage a CRC-32 was
  // guaranteed to catch. Each damaged frame must end in a typed NetError
  // (the seal, the type check, the length cap or a short read) — never in
  // a delivered message.
  constexpr std::uint64_t kSeed = 0x5EA1F01Dull;
  constexpr std::size_t kCap = 4096;  // above every payload here
  constexpr int kBursts = 1 << 20;
  SCOPED_TRACE("seed " + std::to_string(kSeed));
  std::mt19937_64 rng(kSeed);
  Bytes slice(256);
  for (std::uint8_t& byte : slice) byte = static_cast<std::uint8_t>(rng());

  struct Case {
    const char* name;
    Bytes wire;
  };
  std::vector<Case> cases;
  {
    CaptureChannel capture;
    send_message(capture, MsgType::StateChunk, encode_state_chunk(7, slice));
    cases.push_back({"StateChunk", capture.bytes});
  }
  {
    CaptureChannel capture;
    send_message(capture, MsgType::Prepare, encode_txn_token({.txn_id = 9, .incarnation = 3}));
    cases.push_back({"Prepare", capture.bytes});
  }

  const auto receive = [](std::span<const std::uint8_t> wire) {
    ReplayChannel ch(wire);
    recv_message(ch, kCap);
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_NO_THROW(receive(c.wire)) << "the intact frame must pass";
    // Every single-byte substitution: all 255 other values at each
    // offset, which includes every single-bit flip.
    Bytes damaged = c.wire;
    for (std::size_t at = 0; at < damaged.size(); ++at) {
      for (unsigned mask = 1; mask < 256; ++mask) {
        damaged[at] = static_cast<std::uint8_t>(c.wire[at] ^ mask);
        ASSERT_THROW(receive(damaged), NetError) << "offset " << at << " xor " << mask;
      }
      damaged[at] = c.wire[at];
    }
  }
  // 2^20 seeded random bursts of exactly 2, 3 or 4 bytes (both end bytes
  // of the error pattern nonzero), dealt round-robin to the two frames.
  std::vector<Bytes> damaged;
  for (const Case& c : cases) damaged.push_back(c.wire);
  for (int burst = 0; burst < kBursts; ++burst) {
    const Case& c = cases[static_cast<std::size_t>(burst) % cases.size()];
    Bytes& wire = damaged[static_cast<std::size_t>(burst) % cases.size()];
    const std::size_t len = 2 + rng() % 3;
    const std::size_t at = rng() % (wire.size() - len + 1);
    for (std::size_t i = 0; i < len; ++i) {
      std::uint8_t mask = static_cast<std::uint8_t>(rng());
      if ((i == 0 || i == len - 1) && mask == 0) mask = 1;
      wire[at + i] ^= mask;
    }
    ASSERT_THROW(receive(wire), NetError)
        << c.name << ", burst " << burst << ": " << len << " bytes at offset " << at;
    std::copy_n(c.wire.begin() + static_cast<std::ptrdiff_t>(at), len,
                wire.begin() + static_cast<std::ptrdiff_t>(at));
  }
}

TEST(Message, ASealedChunkSendIsTheFrameSendMessageMakes) {
  // send_state_chunk seals from the digest its caller holds; the frame is
  // byte-for-byte the one send_message makes of encode_state_chunk, and
  // the receiver hands back that same body digest.
  Bytes slice(1000);
  for (std::size_t i = 0; i < slice.size(); ++i) slice[i] = static_cast<std::uint8_t>(i * 7);
  const std::uint64_t digest = StreamDigest::of(slice);
  CaptureChannel sealed;
  send_state_chunk(sealed, 42, slice, digest);
  CaptureChannel encoded;
  send_message(encoded, MsgType::StateChunk, encode_state_chunk(42, slice));
  EXPECT_EQ(sealed.bytes, encoded.bytes);
  ReplayChannel replay(sealed.bytes);
  const Message msg = recv_message(replay);
  EXPECT_EQ(msg.type, MsgType::StateChunk);
  EXPECT_EQ(decode_state_chunk_seq(msg.payload), 42u);
  EXPECT_EQ(msg.body_digest, digest);
  EXPECT_TRUE(std::equal(msg.payload.begin() + 4, msg.payload.end(), slice.begin()));

  // The seal is the chunk rule's: a body digest that does not match the
  // body fails it, and so does a chunk sealed whole, as protocol v9 did.
  CaptureChannel lying;
  send_state_chunk(lying, 42, slice, digest ^ 1);
  ReplayChannel lie(lying.bytes);
  EXPECT_THROW(recv_message(lie), NetError);
  const Bytes v9 = frame_bytes(MsgType::StateChunk, encode_state_chunk(42, slice));
  ASSERT_TRUE(std::equal(v9.begin(), v9.end() - 4, sealed.bytes.begin()));
  ReplayChannel old(v9);
  try {
    recv_message(old);
    FAIL() << "a whole-sealed StateChunk was accepted";
  } catch (const NetError& e) {
    EXPECT_NE(std::string(e.what()).find("seal"), std::string::npos) << e.what();
  }
}

/// A StateChunk frame as the parts send_state_chunk hands sendv (head,
/// body in place, seal), and the same frame contiguous.
struct GatheredFrame {
  explicit GatheredFrame(std::size_t body_bytes) : body(make_payload(body_bytes)) {
    CaptureChannel capture;  // the default sendv: the parts stitched
    send_state_chunk(capture, 3, body, StreamDigest::of(body));
    contiguous = capture.bytes;
    const std::span<const std::uint8_t> frame(contiguous);
    head.assign(frame.begin(), frame.begin() + 9);
    seal.assign(frame.end() - 4, frame.end());
  }
  [[nodiscard]] std::vector<ConstBytes> parts() const { return {head, ConstBytes{}, body, seal}; }

  Bytes body;
  Bytes contiguous;
  Bytes head;
  Bytes seal;
};

TEST(Gather, AGatheredSendPutsTheContiguousFrameOnEveryTransport) {
  // 1 MiB of body outruns a socket's buffer, so writev returns short and
  // the send resumes mid-part; the empty part is skipped.
  const GatheredFrame frame(1 << 20);
  const auto check = [&](ByteChannel& tx, ByteChannel& rx, const char* name) {
    SCOPED_TRACE(name);
    std::thread sender([&] {
      tx.sendv(frame.parts());
      tx.send(frame.contiguous);
      send_state_chunk(tx, 3, frame.body, StreamDigest::of(frame.body));
    });
    Bytes gathered(frame.contiguous.size());
    Bytes contiguous(frame.contiguous.size());
    rx.recv(gathered);
    rx.recv(contiguous);
    const Message msg = recv_message(rx);
    sender.join();
    EXPECT_EQ(gathered, frame.contiguous);
    EXPECT_EQ(contiguous, frame.contiguous);
    EXPECT_EQ(msg.body_digest, StreamDigest::of(frame.body));
  };
  {
    auto [a, b] = MemChannel::make_pair();
    check(*a, *b, "memory");
  }
  {
    SocketListener listener;
    std::unique_ptr<SocketChannel> server;
    std::thread acceptor([&] { server = listener.accept(); });
    auto client = connect_to(listener.port());
    acceptor.join();
    check(*client, *server, "socket");
  }
  {
    const std::string path = "/tmp/hpm_net_test_gather.bin";
    std::remove(path.c_str());
    std::remove((path + ".done").c_str());
    FileWriterChannel writer(path);
    FileReaderChannel reader(path);
    check(writer, reader, "file");
    writer.close();
    std::remove(path.c_str());
    std::remove((path + ".done").c_str());
  }
}

/// Everything `rx` delivers until its peer's end of stream.
Bytes drain(ByteChannel& rx) {
  Bytes got;
  std::uint8_t byte = 0;
  for (;;) {
    try {
      rx.recv({&byte, 1});
    } catch (const NetError&) {
      return got;
    }
    got.push_back(byte);
  }
}

TEST(Gather, FaultOffsetsCountBytesAcrossTheParts) {
  // Every byte-offset fault, at every offset of a frame and again past it,
  // lands on the same byte whether the frame went out contiguous or in
  // parts: the peer receives the same bytes and the sender sees the same
  // outcome.
  const GatheredFrame frame(23);  // 9 + 23 + 4 = 36 bytes
  for (const FaultKind kind :
       {FaultKind::Disconnect, FaultKind::Corrupt, FaultKind::Truncate, FaultKind::Stall}) {
    for (std::uint64_t offset = 0; offset <= 2 * frame.contiguous.size(); ++offset) {
      SCOPED_TRACE(std::string(fault_kind_name(kind)) + " at " + std::to_string(offset));
      FaultPlan plan;
      plan.kind = kind;
      plan.offset = offset;
      plan.length = 3;
      plan.stall_seconds = 0.0001;
      const auto run = [&](bool gathered) {
        auto [a, b] = MemChannel::make_pair();
        FaultyChannel faulty(std::move(a), plan);
        std::string outcome = "ok";
        for (int i = 0; i < 2; ++i) {
          try {
            if (gathered) {
              faulty.sendv(frame.parts());
            } else {
              faulty.send(frame.contiguous);
            }
          } catch (const NetError& e) {
            outcome = e.what();
          }
        }
        faulty.close();
        return std::make_pair(outcome, drain(*b));
      };
      EXPECT_EQ(run(true), run(false));
    }
  }
}

TEST(Gather, KillCountsOneGatheredSendAsOneFrame) {
  const GatheredFrame frame(64);
  auto [a, b] = MemChannel::make_pair();
  FaultyChannel faulty(std::move(a), FaultPlan::kill_after(2));
  faulty.sendv(frame.parts());
  faulty.sendv(frame.parts());
  EXPECT_THROW(faulty.sendv(frame.parts()), KilledError);
  Bytes both(2 * frame.contiguous.size());
  b->recv(both);  // the two frames before the crash arrived whole
  EXPECT_TRUE(std::equal(frame.contiguous.begin(), frame.contiguous.end(), both.begin()));
  Bytes more(1);
  EXPECT_THROW(b->recv(more), NetError);
}

TEST(Gather, CorruptMaskedReSealsAGatheredFrame) {
  const GatheredFrame frame(64);
  FaultPlan plan;
  plan.kind = FaultKind::CorruptMasked;
  plan.offset = 9 + 10;  // body byte 10: in the body part
  auto [a, b] = MemChannel::make_pair();
  FaultyChannel faulty(std::move(a), plan);
  send_state_chunk(faulty, 3, frame.body, StreamDigest::of(frame.body));
  const Message msg = recv_message(*b);
  ASSERT_EQ(msg.payload.size(), 4 + frame.body.size());
  for (std::size_t i = 0; i < frame.body.size(); ++i) {
    const std::uint8_t want =
        i == 10 ? static_cast<std::uint8_t>(frame.body[i] ^ 0xA5u) : frame.body[i];
    EXPECT_EQ(msg.payload[4 + i], want) << "at " << i;
  }
}

TEST(FaultyChannel, CorruptMaskedReSealsTheFrameItDamages) {
  // Damage below the seal: the frame passes the framing layer with one
  // payload byte changed, which only the end-to-end digest can catch.
  FaultPlan plan;
  plan.kind = FaultKind::CorruptMasked;
  plan.offset = 5 + 10;  // payload byte 10, past the type/len header
  auto [a, b] = MemChannel::make_pair();
  FaultyChannel faulty(std::move(a), plan);
  const Bytes payload = make_payload(64);
  obs::Counter& failures = obs::Registry::process().counter("net.frames.seal_failures");
  const std::uint64_t before = failures.value();
  send_message(faulty, MsgType::StateChunk, payload);
  const Message msg = recv_message(*b);
  EXPECT_EQ(failures.value(), before);
  ASSERT_EQ(msg.payload.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    const std::uint8_t want =
        i == 10 ? static_cast<std::uint8_t>(payload[i] ^ 0xA5u) : payload[i];
    EXPECT_EQ(msg.payload[i], want) << "at " << i;
  }
}

TEST(FaultyChannel, CorruptFaultFiresOnceAtItsOffset) {
  FaultPlan plan;
  plan.kind = FaultKind::Corrupt;
  plan.offset = 10;
  plan.length = 2;
  plan.max_firings = 1;
  auto state = std::make_shared<FaultState>();
  auto [a, b] = MemChannel::make_pair();
  FaultyChannel faulty(std::move(a), plan, state);
  const Bytes out = make_payload(32);
  faulty.send(out);
  Bytes in(32);
  b->recv(in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (i == 10 || i == 11) {
      EXPECT_EQ(in[i], static_cast<std::uint8_t>(out[i] ^ 0xA5u)) << "at " << i;
    } else {
      EXPECT_EQ(in[i], out[i]) << "at " << i;
    }
  }
  EXPECT_EQ(state->firings, 1);
  faulty.send(out);  // budget exhausted: second pass is clean
  b->recv(in);
  EXPECT_EQ(in, out);
  EXPECT_EQ(state->firings, 1);
}

TEST(FaultyChannel, DisconnectFaultBreaksBothEnds) {
  FaultPlan plan;
  plan.kind = FaultKind::Disconnect;
  plan.offset = 8;
  auto [a, b] = MemChannel::make_pair();
  FaultyChannel faulty(std::move(a), plan);
  const Bytes out = make_payload(32);
  EXPECT_THROW(faulty.send(out), NetError);
  Bytes in(32);
  EXPECT_THROW(b->recv(in), NetError);  // only 8 bytes arrived, then EOF
  EXPECT_THROW(faulty.send(out), NetError);
  EXPECT_NO_THROW(faulty.close());  // dead channel: close is a quiet no-op
}

TEST(FaultyChannel, KillOnRecvFiresOncePerFiringAtItsOffset) {
  // Three bindings share a firing budget of 2: the first two endpoints
  // die after exactly `offset` received bytes, the third receives cleanly.
  FaultPlan plan;
  plan.kind = FaultKind::KillOnRecv;
  plan.offset = 20;
  plan.max_firings = 2;
  auto state = std::make_shared<FaultState>();
  const Bytes out = make_payload(32);
  for (int binding = 0; binding < 3; ++binding) {
    SCOPED_TRACE("binding " + std::to_string(binding));
    auto [a, b] = MemChannel::make_pair();
    FaultyChannel faulty(std::move(b), plan, state);
    a->send(out);
    faulty.send(out);  // the send path is untouched
    Bytes head(20);
    faulty.recv(head);  // exactly up to the offset: delivered
    EXPECT_TRUE(std::equal(head.begin(), head.end(), out.begin()));
    Bytes rest(12);
    if (binding < 2) {
      EXPECT_THROW(faulty.recv(rest), KilledError);
      EXPECT_THROW(faulty.send(out), NetError);  // a dead endpoint sends nothing
      Bytes sent(32);
      a->recv(sent);  // what it sent before dying still arrives...
      EXPECT_EQ(sent, out);
      Bytes more(1);
      EXPECT_THROW(a->recv(more), NetError);  // ...then the peer sees the crash
    } else {
      EXPECT_NO_THROW(faulty.recv(rest));  // budget spent: a clean binding
      EXPECT_TRUE(std::equal(rest.begin(), rest.end(), out.begin() + 20));
    }
    EXPECT_EQ(state->firings, std::min(binding + 1, 2));
  }
}

TEST(FaultyChannel, TruncateSwallowsTheTailThenClosesCleanly) {
  FaultPlan plan;
  plan.kind = FaultKind::Truncate;
  plan.offset = 12;
  auto [a, b] = MemChannel::make_pair();
  FaultyChannel faulty(std::move(a), plan);
  const Bytes out = make_payload(32);
  faulty.send(out);  // no error on the sender: the tail vanishes silently
  Bytes head(12);
  b->recv(head);
  EXPECT_TRUE(std::equal(head.begin(), head.end(), out.begin()));
  faulty.close();
  Bytes more(1);
  EXPECT_THROW(b->recv(more), NetError);  // clean EOF, short stream
}

TEST(FaultyChannel, StallPastTheDeadlineIsTaggedAndCounted) {
  FaultPlan plan;
  plan.kind = FaultKind::Stall;
  plan.offset = 8;
  plan.stall_seconds = 10.0;  // far past the deadline below
  auto [a, b] = MemChannel::make_pair();
  FaultyChannel faulty(std::move(a), plan);
  faulty.set_timeout(std::chrono::milliseconds(20));
  const std::uint64_t before =
      obs::Registry::process().snapshot().counter("net.faults.stalls_hit");
  const Bytes out = make_payload(32);
  try {
    faulty.send(out);
    FAIL() << "a stall past the send deadline must surface as TimeoutError";
  } catch (const TimeoutError& e) {
    // The tag lets a chaos harness tell an injected stall's timeout from
    // an organic one when asserting "no real hangs".
    EXPECT_NE(std::string(e.what()).find("[injected-stall]"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(obs::Registry::process().snapshot().counter("net.faults.stalls_hit"),
            before + 1);
}

TEST(FaultyChannel, ShortStallUnderTheDeadlineDelivers) {
  FaultPlan plan;
  plan.kind = FaultKind::Stall;
  plan.offset = 8;
  plan.stall_seconds = 0.01;
  auto [a, b] = MemChannel::make_pair();
  FaultyChannel faulty(std::move(a), plan);
  faulty.set_timeout(std::chrono::milliseconds(500));
  const std::uint64_t before =
      obs::Registry::process().snapshot().counter("net.faults.stalls_hit");
  const Bytes out = make_payload(32);
  faulty.send(out);  // sleeps ~10ms, then the bytes flow intact
  Bytes in(32);
  b->recv(in);
  EXPECT_EQ(in, out);
  EXPECT_EQ(obs::Registry::process().snapshot().counter("net.faults.stalls_hit"),
            before + 1);
}

TEST(FaultPlan, RandomPlansAreSeedDeterministic) {
  const FaultPlan p1 = FaultPlan::random(42);
  const FaultPlan p2 = FaultPlan::random(42);
  EXPECT_EQ(p1.kind, p2.kind);
  EXPECT_EQ(p1.offset, p2.offset);
  EXPECT_EQ(p1.length, p2.length);
  EXPECT_DOUBLE_EQ(p1.stall_seconds, p2.stall_seconds);
  EXPECT_TRUE(p1.enabled());
  // Different seeds explore different plans (not all identical).
  bool differs = false;
  for (std::uint64_t seed = 0; seed < 16 && !differs; ++seed) {
    const FaultPlan q = FaultPlan::random(seed);
    differs = q.kind != p1.kind || q.offset != p1.offset;
  }
  EXPECT_TRUE(differs);
}

TEST(SimulatedLink, TransferTimeScalesWithBytes) {
  const SimulatedLink fast = SimulatedLink::ethernet_100mbps();
  const SimulatedLink slow = SimulatedLink::ethernet_10mbps();
  const double t1 = fast.transfer_seconds(1'000'000);
  const double t8 = fast.transfer_seconds(8'000'000);
  EXPECT_NEAR(t8 / t1, 8.0, 0.1);                        // linear in bytes
  EXPECT_NEAR(slow.transfer_seconds(1'000'000) / t1, 10.0, 0.5);  // 10x slower wire
  EXPECT_EQ(fast.transfer_seconds(0), fast.latency_s);
}

TEST(SimulatedLink, PaperScaleSanity) {
  // ~8 MB of linpack state over 100 Mb/s took the paper ~0.8 s; the model
  // must land in that decade.
  const double t = SimulatedLink::ethernet_100mbps().transfer_seconds(8'000'000);
  EXPECT_GT(t, 0.3);
  EXPECT_LT(t, 2.0);
}

TEST(ThrottledChannel, AccountsModeledTime) {
  auto [a, b] = MemChannel::make_pair();
  SimulatedLink link;
  link.bandwidth_bps = 1e9;  // keep the real sleep tiny
  link.latency_s = 0;
  ThrottledChannel throttled(std::move(a), link);
  const Bytes payload = make_payload(10000);
  throttled.send(payload);
  EXPECT_GT(throttled.modeled_send_seconds(), 0.0);
  Bytes in(10000);
  b->recv(in);
  EXPECT_EQ(in, payload);
}

}  // namespace
}  // namespace hpm::net
