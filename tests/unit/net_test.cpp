// Transport layer: channels, framing, and the Ethernet link model.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "net/faulty_channel.hpp"
#include "net/file_channel.hpp"
#include "net/mem_channel.hpp"
#include "net/message.hpp"
#include "net/simnet.hpp"
#include "net/socket_channel.hpp"
#include "obs/metrics.hpp"

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

TEST(Message, NackRoundTrips) {
  auto [a, b] = MemChannel::make_pair();
  const std::string reason = "frame CRC mismatch";
  send_message(*a, MsgType::Nack, Bytes(reason.begin(), reason.end()));
  const Message msg = recv_message(*b);
  EXPECT_EQ(msg.type, MsgType::Nack);
  EXPECT_EQ(std::string(msg.payload.begin(), msg.payload.end()), reason);
}

Bytes frame_bytes(MsgType type, const Bytes& payload) {
  Bytes frame;
  frame.push_back(static_cast<std::uint8_t>(type));
  const auto len = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<std::uint8_t>((len >> 24) & 0xFFu));
  frame.push_back(static_cast<std::uint8_t>((len >> 16) & 0xFFu));
  frame.push_back(static_cast<std::uint8_t>((len >> 8) & 0xFFu));
  frame.push_back(static_cast<std::uint8_t>(len & 0xFFu));
  frame.insert(frame.end(), payload.begin(), payload.end());
  const std::uint32_t crc = Crc32::of(frame.data(), frame.size());
  frame.push_back(static_cast<std::uint8_t>((crc >> 24) & 0xFFu));
  frame.push_back(static_cast<std::uint8_t>((crc >> 16) & 0xFFu));
  frame.push_back(static_cast<std::uint8_t>((crc >> 8) & 0xFFu));
  frame.push_back(static_cast<std::uint8_t>(crc & 0xFFu));
  return frame;
}

TEST(Message, CorruptedPayloadFailsTheCrcTrailer) {
  auto [a, b] = MemChannel::make_pair();
  Bytes frame = frame_bytes(MsgType::State, make_payload(100));
  frame[5 + 40] ^= 0x01u;  // flip one payload bit in transit
  a->send(frame);
  try {
    recv_message(*b);
    FAIL() << "damaged frame was accepted";
  } catch (const NetError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(Message, IntactHandCraftedFramePassesTheCrcTrailer) {
  auto [a, b] = MemChannel::make_pair();
  const Bytes payload = make_payload(100);
  a->send(frame_bytes(MsgType::State, payload));
  const Message msg = recv_message(*b);
  EXPECT_EQ(msg.type, MsgType::State);
  EXPECT_EQ(msg.payload, payload);
}

TEST(Message, ReservedHeartbeatTagsAreRejectedOnBothLayouts) {
  // Tags 16 and 17 were the protocol-v6 Ping/Pong frames: reserved now,
  // so even an intact frame carrying one is malformed, untagged or tagged.
  for (const std::uint8_t reserved : {std::uint8_t{16}, std::uint8_t{17}}) {
    SCOPED_TRACE("tag " + std::to_string(reserved));
    auto [a, b] = MemChannel::make_pair();
    a->send(frame_bytes(static_cast<MsgType>(reserved), make_payload(12)));
    EXPECT_THROW(recv_message(*b), NetError);

    Bytes tagged = {kTaggedFrameMagic, 0, 0, 0, 1, 0, 1, reserved, 0, 0, 0, 0};
    const std::uint32_t crc = Crc32::of(tagged.data(), tagged.size());
    for (int shift = 24; shift >= 0; shift -= 8) {
      tagged.push_back(static_cast<std::uint8_t>((crc >> shift) & 0xFFu));
    }
    auto [c, d] = MemChannel::make_pair();
    c->send(tagged);
    EXPECT_THROW(recv_tagged_message(*d), NetError);
  }
}

TEST(Message, UntaggedFrameOnARoutedChannelIsATypedError) {
  // A router reads tagged frames only: a plain v3 frame's first byte is
  // its type, never the 0xF5 magic, and is refused before anything else
  // of it is read.
  auto [a, b] = MemChannel::make_pair();
  const Bytes payload = make_payload(40);
  send_tagged_message(*a, 0xA1B2C3D4u, 0x0102, MsgType::StateChunk, payload);
  const TaggedMessage frame = recv_tagged_message(*b);
  EXPECT_EQ(frame.session_id, 0xA1B2C3D4u);
  EXPECT_EQ(frame.epoch, 0x0102);
  EXPECT_EQ(frame.msg.type, MsgType::StateChunk);
  EXPECT_EQ(frame.msg.payload, payload);

  send_message(*a, MsgType::StateChunk, payload);
  try {
    recv_tagged_message(*b);
    FAIL() << "an untagged frame was routed";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("untagged"), std::string::npos) << e.what();
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
