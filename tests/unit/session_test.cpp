// Table-driven exhaustive check of the session state machines: every
// (state, frame) pair of both machines is enumerated against the
// transition tables in session.cpp. The error taxonomy is the contract:
// an illegal pair poisons the session into Aborted and raises
// hpm::ProtocolError; a protocol-legal failure (an Error frame, txn or
// digest or version mismatch) aborts with hpm::MigrationError instead.
// The retired tags (6 Nack, 10 StateAck) are rows too: no machine state
// accepts them, so each poisons the session like any illegal frame.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "mig/session.hpp"
#include "msrm/stream.hpp"
#include "net/message.hpp"

namespace hpm::mig {
namespace {

constexpr std::uint64_t kTxn = 0xABCDEF01u;

/// Distinct ids per machine instance so per-session counters never mix
/// with other tests running in the same process.
std::uint32_t next_session_id() {
  static std::atomic<std::uint32_t> next{9000};
  return next.fetch_add(1);
}

net::Message make_frame(net::MsgType type) {
  net::Message m;
  m.type = type;
  switch (type) {
    case net::MsgType::Hello: m.payload = {net::kProtocolVersion}; break;
    case net::MsgType::State: m.payload = {1, 2, 3}; break;
    case net::MsgType::Error: m.payload = {'x'}; break;
    case net::MsgType::StateBegin:
      m.payload = net::encode_state_begin({.chunk_bytes = 1024, .txn_id = kTxn});
      break;
    case net::MsgType::StateChunk: {
      const std::uint8_t body[] = {7, 7};
      m.payload = net::encode_state_chunk(0, body);
      break;
    }
    case net::MsgType::StateEnd:
      m.payload = net::encode_state_end({.chunk_count = 1, .total_bytes = 2, .digest = 5});
      break;
    case net::MsgType::Prepare:
    case net::MsgType::Commit:
    case net::MsgType::Abort: m.payload = net::encode_txn_token({.txn_id = kTxn}); break;
    case net::MsgType::PrepareAck:
      m.payload = net::encode_prepare_ack({.txn_id = kTxn, .digest = 0});
      break;
    case net::MsgType::ResumeHello:
      m.payload = net::encode_resume_hello({.txn_id = kTxn, .next_seq = 3});
      break;
    default: break;
  }
  return m;
}

/// Retired tags, reserved since protocol v9: Nack and StateAck.
constexpr auto kRetiredNack = static_cast<net::MsgType>(6);
constexpr auto kRetiredStateAck = static_cast<net::MsgType>(10);

const net::MsgType kAllTypes[] = {
    net::MsgType::Hello,     net::MsgType::State,    net::MsgType::Ack,
    net::MsgType::Error,     net::MsgType::Shutdown, kRetiredNack,
    net::MsgType::StateBegin, net::MsgType::StateChunk, net::MsgType::StateEnd,
    kRetiredStateAck,        net::MsgType::Prepare,  net::MsgType::PrepareAck,
    net::MsgType::Commit,    net::MsgType::Abort,    net::MsgType::ResumeHello,
};

/// What a (state, frame) cell expects.
enum class Want {
  Legal,         ///< accepted; machine lands in `to`
  ProtocolErr,   ///< illegal pair: Aborted + ProtocolError
  MigrationErr,  ///< legal-but-failed: Aborted + MigrationError
};

struct Cell {
  SessionState from;
  net::MsgType frame;
  Want want;
  SessionState to;  ///< meaningful for Want::Legal only
};

/// ---- SourceSession --------------------------------------------------------

/// Drive a fresh source machine into `state` through legal moves only.
void drive_source(SourceSession& s, SessionState state) {
  if (state == SessionState::Idle) return;
  if (state == SessionState::Aborted) {
    s.abort_decided("driven for test");
    return;
  }
  s.on_frame(make_frame(net::MsgType::Hello));
  if (state == SessionState::Hello) return;
  s.begin_streaming();
  if (state == SessionState::Streaming) return;
  if (state == SessionState::Resuming) {
    s.link_lost();
    return;
  }
  s.prepare_sent();
  if (state == SessionState::Prepared) return;
  s.on_frame(make_frame(net::MsgType::PrepareAck));
  s.commit_decided();
  ASSERT_EQ(s.state(), SessionState::Committed);
}

std::vector<Cell> source_table() {
  const SessionState all[] = {
      SessionState::Idle,     SessionState::Hello,    SessionState::Streaming,
      SessionState::Resuming, SessionState::Prepared, SessionState::Committed,
      SessionState::Aborted,
  };
  std::vector<Cell> table;
  for (SessionState from : all) {
    const bool terminal =
        from == SessionState::Committed || from == SessionState::Aborted;
    for (net::MsgType t : kAllTypes) {
      Cell cell{from, t, Want::ProtocolErr, from};
      switch (t) {
        case net::MsgType::Hello:
          if (from == SessionState::Idle) cell = {from, t, Want::Legal, SessionState::Hello};
          break;
        case net::MsgType::ResumeHello:
          if (from == SessionState::Resuming) {
            cell = {from, t, Want::Legal, SessionState::Streaming};
          }
          break;
        case net::MsgType::PrepareAck:
          if (from == SessionState::Prepared) cell = {from, t, Want::Legal, from};
          break;
        case net::MsgType::Ack:
          if (from == SessionState::Committed) cell = {from, t, Want::Legal, from};
          break;
        case net::MsgType::Error:
          // The one failure report, part of the protocol anywhere before
          // the verdict (Resuming included) — the handoff failed, the
          // protocol did not.
          if (!terminal) cell = {from, t, Want::MigrationErr, SessionState::Aborted};
          break;
        default:
          break;  // source-direction frames and retired tags: never legal here
      }
      table.push_back(cell);
    }
  }
  return table;
}

TEST(SourceSessionTable, EveryStateFramePairBehavesPerTheTable) {
  for (const Cell& cell : source_table()) {
    SCOPED_TRACE(std::string(session_state_name(cell.from)) + " + frame " +
                 std::to_string(static_cast<int>(cell.frame)));
    SourceSession s(next_session_id(), kTxn);
    drive_source(s, cell.from);
    ASSERT_EQ(s.state(), cell.from);
    switch (cell.want) {
      case Want::Legal:
        EXPECT_EQ(s.on_frame(make_frame(cell.frame)), cell.to);
        break;
      case Want::ProtocolErr:
        EXPECT_THROW(s.on_frame(make_frame(cell.frame)), ProtocolError);
        EXPECT_EQ(s.state(), SessionState::Aborted) << "illegal frames poison";
        EXPECT_FALSE(s.abort_reason().empty());
        break;
      case Want::MigrationErr:
        EXPECT_THROW(s.on_frame(make_frame(cell.frame)), MigrationError);
        EXPECT_EQ(s.state(), SessionState::Aborted);
        break;
    }
  }
}

TEST(SourceSessionTable, SemanticChecksRejectWithMigrationError) {
  {  // version skew in Hello: a v9 peer seals StateChunks whole and
     // speaks stream grammar v3
    SourceSession s(next_session_id(), kTxn);
    net::Message hello = make_frame(net::MsgType::Hello);
    ASSERT_EQ(net::kProtocolVersion, 10);
    hello.payload[0] = 9;
    EXPECT_THROW(s.on_frame(hello), MigrationError);
    EXPECT_EQ(s.state(), SessionState::Aborted);
    EXPECT_NE(s.abort_reason().find("destination speaks v9"), std::string::npos)
        << s.abort_reason();
  }
  {  // ResumeHello for a foreign transaction
    SourceSession s(next_session_id(), kTxn);
    drive_source(s, SessionState::Resuming);
    net::Message resume;
    resume.type = net::MsgType::ResumeHello;
    resume.payload = net::encode_resume_hello({.txn_id = kTxn + 1, .next_seq = 0});
    EXPECT_THROW(s.on_frame(resume), MigrationError);
  }
  {  // ResumeHello claiming more chunks than the retained stream holds
    SourceSession s(next_session_id(), kTxn);
    drive_source(s, SessionState::Resuming);
    s.set_stream(2, 99);
    net::Message resume;
    resume.type = net::MsgType::ResumeHello;
    resume.payload = net::encode_resume_hello({.txn_id = kTxn, .next_seq = 3});
    EXPECT_THROW(s.on_frame(resume), MigrationError);
  }
  {  // end-to-end digest mismatch at Prepare
    SourceSession s(next_session_id(), kTxn);
    drive_source(s, SessionState::Prepared);
    s.set_stream(4, 0xAAAA);
    net::Message ack;
    ack.type = net::MsgType::PrepareAck;
    ack.payload = net::encode_prepare_ack({.txn_id = kTxn, .digest = 0xBBBB});
    EXPECT_THROW(s.on_frame(ack), MigrationError);
    EXPECT_NE(s.abort_reason().find("digest mismatch"), std::string::npos);
  }
}

TEST(SourceSessionTable, OutOfOrderLocalEventsAreProtocolErrors) {
  SourceSession s(next_session_id(), kTxn);
  EXPECT_THROW(s.begin_streaming(), ProtocolError);  // no Hello yet
  EXPECT_EQ(s.state(), SessionState::Aborted);

  SourceSession s2(next_session_id(), kTxn);
  drive_source(s2, SessionState::Hello);
  EXPECT_THROW(s2.commit_decided(), ProtocolError);  // no Prepare yet
}

/// ---- DestSession ----------------------------------------------------------

/// Destination driver states: SessionState plus the "stream fully
/// received" refinement of Streaming that gates Prepare.
struct DestFrom {
  SessionState state;
  bool stream_done;
};

void drive_dest(DestSession& d, const DestFrom& from) {
  if (from.state == SessionState::Idle) return;
  if (from.state == SessionState::Aborted) {
    d.abort_decided("driven for test");
    return;
  }
  d.announce();
  if (from.state == SessionState::Hello) return;
  d.on_frame(make_frame(net::MsgType::StateBegin));
  if (from.state == SessionState::Resuming) {
    d.park();
    return;
  }
  if (from.state == SessionState::Streaming) {
    if (from.stream_done) d.on_frame(make_frame(net::MsgType::StateEnd));
    return;
  }
  d.on_frame(make_frame(net::MsgType::StateEnd));
  d.on_frame(make_frame(net::MsgType::Prepare));
  if (from.state == SessionState::Prepared) return;
  d.on_frame(make_frame(net::MsgType::Commit));
  ASSERT_EQ(d.state(), SessionState::Committed);
}

std::vector<std::pair<DestFrom, std::vector<Cell>>> dest_table() {
  const DestFrom froms[] = {
      {SessionState::Idle, false},      {SessionState::Hello, false},
      {SessionState::Streaming, false}, {SessionState::Streaming, true},
      {SessionState::Resuming, false},  {SessionState::Prepared, false},
      {SessionState::Committed, false}, {SessionState::Aborted, false},
  };
  std::vector<std::pair<DestFrom, std::vector<Cell>>> table;
  for (const DestFrom& from : froms) {
    std::vector<Cell> cells;
    for (net::MsgType t : kAllTypes) {
      Cell cell{from.state, t, Want::ProtocolErr, from.state};
      switch (t) {
        case net::MsgType::StateBegin:
          if (from.state == SessionState::Hello) {
            cell = {from.state, t, Want::Legal, SessionState::Streaming};
          }
          break;
        case net::MsgType::Shutdown:
          // Orderly no-migration teardown: lands in Aborted WITHOUT a
          // throw; asserted separately below (not a Want::Legal cell
          // because `to` differs from a failure-free continuation).
          if (from.state == SessionState::Hello) {
            cell = {from.state, t, Want::Legal, SessionState::Aborted};
          }
          break;
        case net::MsgType::StateChunk:
        case net::MsgType::StateEnd:
          if (from.state == SessionState::Streaming && !from.stream_done) {
            cell = {from.state, t, Want::Legal, SessionState::Streaming};
          }
          break;
        case net::MsgType::Prepare:
          if (from.state == SessionState::Streaming && from.stream_done) {
            cell = {from.state, t, Want::Legal, SessionState::Prepared};
          }
          break;
        case net::MsgType::Commit:
          if (from.state == SessionState::Prepared) {
            cell = {from.state, t, Want::Legal, SessionState::Committed};
          }
          break;
        case net::MsgType::Abort:
          if (from.state == SessionState::Prepared) {
            cell = {from.state, t, Want::MigrationErr, SessionState::Aborted};
          }
          break;
        default:
          break;  // destination-direction frames and retired tags: never legal here
      }
      cells.push_back(cell);
    }
    table.emplace_back(from, std::move(cells));
  }
  return table;
}

TEST(DestSessionTable, EveryStateFramePairBehavesPerTheTable) {
  for (const auto& [from, cells] : dest_table()) {
    for (const Cell& cell : cells) {
      SCOPED_TRACE(std::string(session_state_name(from.state)) +
                   (from.stream_done ? "(stream-done)" : "") + " + frame " +
                   std::to_string(static_cast<int>(cell.frame)));
      DestSession d(next_session_id());
      drive_dest(d, from);
      ASSERT_EQ(d.state(), from.state);
      switch (cell.want) {
        case Want::Legal:
          EXPECT_EQ(d.on_frame(make_frame(cell.frame)), cell.to);
          break;
        case Want::ProtocolErr:
          EXPECT_THROW(d.on_frame(make_frame(cell.frame)), ProtocolError);
          EXPECT_EQ(d.state(), SessionState::Aborted) << "illegal frames poison";
          EXPECT_FALSE(d.abort_reason().empty());
          break;
        case Want::MigrationErr:
          EXPECT_THROW(d.on_frame(make_frame(cell.frame)), MigrationError);
          EXPECT_EQ(d.state(), SessionState::Aborted);
          break;
      }
    }
  }
}

TEST(DestSessionTable, ShutdownInHelloIsOrderlyNotAFailure) {
  DestSession d(next_session_id());
  d.announce();
  EXPECT_EQ(d.on_frame(make_frame(net::MsgType::Shutdown)), SessionState::Aborted);
  EXPECT_TRUE(d.orderly_shutdown());

  DestSession late(next_session_id());
  drive_dest(late, {SessionState::Streaming, false});
  EXPECT_THROW(late.on_frame(make_frame(net::MsgType::Shutdown)), ProtocolError);
  EXPECT_FALSE(late.orderly_shutdown());
}

TEST(DestSessionTable, LearnsTheTransactionFromStateBeginAndEnforcesIt) {
  DestSession d(next_session_id());
  d.announce();
  d.on_frame(make_frame(net::MsgType::StateBegin));
  EXPECT_EQ(d.txn_id(), kTxn);
  d.on_frame(make_frame(net::MsgType::StateEnd));
  net::Message prepare;
  prepare.type = net::MsgType::Prepare;
  prepare.payload = net::encode_txn_token({.txn_id = kTxn + 7});
  EXPECT_THROW(d.on_frame(prepare), MigrationError);
  EXPECT_EQ(d.state(), SessionState::Aborted);
}

TEST(DestSessionTable, StateBeginWithAHostileChunkSizeIsAProtocolError) {
  // The chunk size is the stream's leaf size and sizes the assembly
  // buffer's reserve: zero, or more than one StateChunk frame can carry, is
  // refused before anything is allocated for it.
  for (const std::uint32_t chunk : {0u, msrm::kMaxLeafBytes + 1, 0xFFFFFFFFu}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    DestSession d(next_session_id());
    d.announce();
    net::Message begin = make_frame(net::MsgType::StateBegin);
    begin.payload = net::encode_state_begin({.chunk_bytes = chunk, .txn_id = kTxn});
    EXPECT_THROW(d.on_frame(begin), ProtocolError);
    EXPECT_EQ(d.state(), SessionState::Aborted);
    EXPECT_NE(d.abort_reason().find("chunk size"), std::string::npos) << d.abort_reason();
  }
  DestSession d(next_session_id());
  d.announce();
  net::Message begin = make_frame(net::MsgType::StateBegin);
  begin.payload = net::encode_state_begin({.chunk_bytes = msrm::kMaxLeafBytes, .txn_id = kTxn});
  EXPECT_EQ(d.on_frame(begin), SessionState::Streaming);
}

TEST(DestSessionTable, CountsChunksAndRefinesStreamingWithStateEnd) {
  DestSession d(next_session_id());
  drive_dest(d, {SessionState::Streaming, false});
  d.on_frame(make_frame(net::MsgType::StateChunk));
  d.on_frame(make_frame(net::MsgType::StateChunk));
  EXPECT_EQ(d.chunks_seen(), 2u);
  d.on_frame(make_frame(net::MsgType::StateEnd));
  // After StateEnd the stream is sealed: more chunks are hostile.
  EXPECT_THROW(d.on_frame(make_frame(net::MsgType::StateChunk)), ProtocolError);
}

TEST(SessionMachines, PerSessionInstrumentsAreLabeledByIdAndRole) {
  const std::uint32_t id = next_session_id();
  SourceSession s(id, kTxn);
  s.on_frame(make_frame(net::MsgType::Hello));
  const std::string prefix = "mig.session." + std::to_string(id) + ".";
  obs::MetricsSnapshot snap = obs::Registry::process().snapshot();
  EXPECT_EQ(snap.counter(prefix + "source.frames"), 1u);
  EXPECT_EQ(snap.gauge(prefix + "source.state"),
            static_cast<std::int64_t>(SessionState::Hello));
  // The destination half of the same session id keeps separate books.
  EXPECT_EQ(snap.counter(prefix + "destination.frames"), 0u);
}

}  // namespace
}  // namespace hpm::mig
