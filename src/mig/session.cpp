#include "mig/session.hpp"

#include <cstdio>

#include "mig/mig_metrics.hpp"
#include "msrm/stream.hpp"

// Every leaf size a stream header may name fits one StateChunk frame: the
// body plus its u32 seq and the dedup codec tag stay under the frame cap.
static_assert(std::size_t{hpm::msrm::kMaxLeafBytes} + 5 == hpm::net::kMaxFramePayload);

namespace hpm::mig {

namespace {

std::string payload_text(const net::Message& frame) {
  return {frame.payload.begin(), frame.payload.end()};
}

}  // namespace

const char* session_state_name(SessionState state) noexcept {
  switch (state) {
    case SessionState::Idle: return "idle";
    case SessionState::Hello: return "hello";
    case SessionState::Streaming: return "streaming";
    case SessionState::Resuming: return "resuming";
    case SessionState::Prepared: return "prepared";
    case SessionState::Committed: return "committed";
    case SessionState::Aborted: return "aborted";
    case SessionState::Redirecting: return "redirecting";
  }
  return "?";
}

namespace {

const char* msg_type_name(net::MsgType type) noexcept {
  switch (type) {
    case net::MsgType::Hello: return "Hello";
    case net::MsgType::State: return "State";
    case net::MsgType::Ack: return "Ack";
    case net::MsgType::Error: return "Error";
    case net::MsgType::Shutdown: return "Shutdown";
    case net::MsgType::StateBegin: return "StateBegin";
    case net::MsgType::StateChunk: return "StateChunk";
    case net::MsgType::StateEnd: return "StateEnd";
    case net::MsgType::Prepare: return "Prepare";
    case net::MsgType::PrepareAck: return "PrepareAck";
    case net::MsgType::Commit: return "Commit";
    case net::MsgType::Abort: return "Abort";
    case net::MsgType::ResumeHello: return "ResumeHello";
    case net::MsgType::ManifestBegin: return "ManifestBegin";
    case net::MsgType::ManifestChunk: return "ManifestChunk";
    case net::MsgType::ManifestAck: return "ManifestAck";
  }
  return "?";
}

std::string session_metric(std::uint32_t id, const char* role, const char* leaf) {
  return "mig.session." + std::to_string(id) + "." + role + "." + leaf;
}

}  // namespace

SessionMachine::SessionMachine(const char* role, std::uint32_t session_id)
    : role_(role),
      id_(session_id),
      frames_(obs::Registry::process().counter(
          session_metric(session_id, role, "frames"))),
      transitions_(obs::Registry::process().counter(
          session_metric(session_id, role, "transitions"))),
      state_gauge_(obs::Registry::process().gauge(
          session_metric(session_id, role, "state"))) {
  state_gauge_.set(static_cast<std::int64_t>(state_));
}

SessionState SessionMachine::state() const {
  std::lock_guard lk(mu_);
  return state_;
}

bool SessionMachine::terminal() const {
  std::lock_guard lk(mu_);
  return state_ == SessionState::Committed || state_ == SessionState::Aborted;
}

std::string SessionMachine::abort_reason() const {
  std::lock_guard lk(mu_);
  return abort_reason_;
}

void SessionMachine::transition_locked(SessionState next) {
  if (next == state_) return;
  state_ = next;
  transitions_.add(1);
  state_gauge_.set(static_cast<std::int64_t>(next));
}

void SessionMachine::illegal_locked(net::MsgType type) {
  std::string why = std::string(role_) + " session " + std::to_string(id_) +
                    ": illegal frame " + msg_type_name(type) + " in state " +
                    session_state_name(state_);
  abort_reason_ = why;
  transition_locked(SessionState::Aborted);
  throw ProtocolError(why);
}

void SessionMachine::illegal_event_locked(const char* event) {
  std::string why = std::string(role_) + " session " + std::to_string(id_) +
                    ": event " + event + " is illegal in state " +
                    session_state_name(state_);
  abort_reason_ = why;
  transition_locked(SessionState::Aborted);
  throw ProtocolError(why);
}

void SessionMachine::reject_locked(std::string why) {
  abort_reason_ = why;
  transition_locked(SessionState::Aborted);
  throw MigrationError(why);
}

void SessionMachine::hostile_locked(std::string why) {
  abort_reason_ = why;
  transition_locked(SessionState::Aborted);
  throw ProtocolError(why);
}

/// ---- SourceSession --------------------------------------------------------
///
/// Transition table (frames the DESTINATION sends):
///
///   state       │ Hello  ResumeHello  PrepareAck  Ack   Error
///   ────────────┼─────────────────────────────────────────────
///   Idle        │ Hello¹ ·            ·           ·     Aborted²
///   Hello       │ ·      ·            ·           ·     Aborted²
///   Streaming   │ ·      ·            ·           ·     Aborted²
///   Resuming    │ ·      Streaming¹   ·           ·     Aborted²
///   Prepared    │ ·      ·            Prepared¹   ·     Aborted²
///   Redirecting │ Hello¹ ·            ·           ·     no-op³
///   Committed   │ ·      ·            ·           keep  ·
///   Aborted     │ ·      ·            ·           ·     ·
///
///   · = illegal → Aborted + ProtocolError
///   ¹ = semantic checks (version / txn / digest / resume bound) may
///       still reject → Aborted + MigrationError
///   ² = the one failure frame: "rejected" in every live state, Resuming
///       included → Aborted + MigrationError
///   ³ = stragglers from the fenced-off destination are dropped, not
///       poison: the redirect already presumed that endpoint dead
///
///   Dedup extension: ManifestAck is legal exactly once per destination
///   incarnation, in Streaming (redirect_decided re-arms it for the
///   standby's own negotiation). PrepareAck must echo the incarnation the
///   redirect handed out, or the vote is rejected as stale.

SourceSession::SourceSession(std::uint32_t session_id, std::uint64_t txn_id)
    : SessionMachine("source", session_id), txn_(txn_id) {}

SessionState SourceSession::on_frame(const net::Message& frame) {
  std::lock_guard lk(mu_);
  frames_.add(1);
  switch (frame.type) {
    case net::MsgType::Hello:
      // Idle: the primary announcing. Redirecting: the standby a failover
      // re-targeted the stream to — the machine re-enters the handshake.
      if (state_ != SessionState::Idle && state_ != SessionState::Redirecting) {
        illegal_locked(frame.type);
      }
      if (frame.payload.empty() || frame.payload[0] != net::kProtocolVersion) {
        reject_locked("protocol version mismatch: destination speaks v" +
                      std::to_string(frame.payload.empty() ? 0 : frame.payload[0]) +
                      ", source speaks v" + std::to_string(net::kProtocolVersion));
      }
      transition_locked(SessionState::Hello);
      break;

    case net::MsgType::ResumeHello: {
      if (state_ != SessionState::Resuming) illegal_locked(frame.type);
      const net::ResumeHelloInfo info = net::decode_resume_hello(frame.payload);
      if (info.version != net::kProtocolVersion) {
        reject_locked("protocol version mismatch on resume: destination speaks v" +
                      std::to_string(info.version));
      }
      if (info.txn_id != txn_) {
        reject_locked("ResumeHello names a different transaction");
      }
      if (stream_known_ && info.next_seq > total_chunks_) {
        reject_locked("destination claims more chunks than the stream holds");
      }
      resume_next_seq_ = info.next_seq;
      transition_locked(SessionState::Streaming);
      break;
    }

    case net::MsgType::ManifestAck: {
      // The destination's miss set for a dedup'd transfer: legal exactly
      // once, while streaming, before the commit gate opens.
      if (state_ != SessionState::Streaming || manifest_acked_) illegal_locked(frame.type);
      manifest_acked_ = true;
      break;
    }

    case net::MsgType::PrepareAck: {
      if (state_ != SessionState::Prepared) illegal_locked(frame.type);
      const net::PrepareAckInfo vote = net::decode_prepare_ack(frame.payload);
      if (vote.txn_id != txn_) {
        reject_locked("PrepareAck names a different transaction");
      }
      if (vote.incarnation != incarnation_) {
        FailoverMetrics::get().fenced.add(1);
        reject_locked("PrepareAck echoes destination incarnation " +
                      std::to_string(vote.incarnation) + " but the stream addresses " +
                      std::to_string(incarnation_) + " — a fenced-off vote");
      }
      if (stream_known_ && vote.digest != digest_) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%016llx vs destination %016llx",
                      static_cast<unsigned long long>(digest_),
                      static_cast<unsigned long long>(vote.digest));
        reject_locked(std::string("end-to-end digest mismatch at Prepare: source ") + buf);
      }
      break;  // stays Prepared; commit_decided() is the source's own move
    }

    case net::MsgType::Ack:
      // The destination's post-Commit confirmation.
      if (state_ != SessionState::Committed) illegal_locked(frame.type);
      break;

    case net::MsgType::Error:
      if (terminal_locked()) illegal_locked(frame.type);
      if (state_ == SessionState::Redirecting) break;  // fenced straggler
      reject_locked("destination restore failed: " + payload_text(frame));

    default:
      illegal_locked(frame.type);
  }
  return state_;
}

void SourceSession::begin_streaming() {
  std::lock_guard lk(mu_);
  if (state_ != SessionState::Hello) illegal_event_locked("begin_streaming");
  transition_locked(SessionState::Streaming);
}

void SourceSession::link_lost() {
  std::lock_guard lk(mu_);
  if (state_ != SessionState::Streaming && state_ != SessionState::Prepared &&
      state_ != SessionState::Resuming) {
    illegal_event_locked("link_lost");
  }
  transition_locked(SessionState::Resuming);
}

void SourceSession::prepare_sent() {
  std::lock_guard lk(mu_);
  if (state_ != SessionState::Streaming) illegal_event_locked("prepare_sent");
  transition_locked(SessionState::Prepared);
}

void SourceSession::commit_decided() {
  std::lock_guard lk(mu_);
  if (state_ != SessionState::Prepared) illegal_event_locked("commit_decided");
  transition_locked(SessionState::Committed);
}

void SourceSession::abort_decided(std::string why) {
  std::lock_guard lk(mu_);
  if (state_ == SessionState::Committed) illegal_event_locked("abort_decided");
  abort_reason_ = std::move(why);
  transition_locked(SessionState::Aborted);
}

void SourceSession::redirect_decided(std::uint32_t next_incarnation) {
  std::lock_guard lk(mu_);
  // Idle is legal too: a primary that dies before its Hello ever arrives
  // leaves the machine unopened, and the failover hands the (already
  // collected) stream to a standby exactly as it would mid-protocol.
  // Redirecting likewise: a STANDBY that dies before its own Hello parks
  // the machine here, and moving on to the next candidate is the same
  // decision again under the next incarnation. Aborted too: a veto ends
  // one incarnation, not the transaction — a primary retry replays the
  // stream to a fresh incarnation that votes anew.
  if (state_ == SessionState::Hello || state_ == SessionState::Committed) {
    illegal_event_locked("redirect_decided");
  }
  if (next_incarnation <= incarnation_) illegal_event_locked("redirect_decided");
  incarnation_ = next_incarnation;
  // The standby starts from nothing: no manifest negotiation, no resume
  // point. The stream totals (set_stream) survive — the retained stream
  // itself is what gets replayed.
  manifest_acked_ = false;
  resume_next_seq_ = 0;
  transition_locked(SessionState::Redirecting);
}

void SourceSession::set_stream(std::uint64_t total_chunks, std::uint64_t digest) {
  std::lock_guard lk(mu_);
  total_chunks_ = total_chunks;
  digest_ = digest;
  stream_known_ = true;
}

std::uint32_t SourceSession::resume_next_seq() const {
  std::lock_guard lk(mu_);
  return resume_next_seq_;
}

std::uint32_t SourceSession::incarnation() const {
  std::lock_guard lk(mu_);
  return incarnation_;
}

/// ---- DestSession ----------------------------------------------------------
///
/// Transition table (frames the SOURCE sends):
///
///   state      │ StateBegin  Shutdown  StateChunk  StateEnd  Prepare    Commit     Abort
///   ───────────┼───────────────────────────────────────────────────────────────────────
///   Idle       │ ·           ·         ·           ·         ·          ·          ·
///   Hello      │ Streaming   Aborted³  ·           ·         ·          ·          ·
///   Streaming  │ ·           ·         count       mark done Prepared¹⁴ ·          ·
///   Resuming   │ ·           ·         ·           ·         ·          ·          ·
///   Prepared   │ ·           ·         ·           ·         ·          Committed¹ Aborted²
///   Committed  │ ·           ·         ·           ·         ·          ·          ·
///   Aborted    │ ·           ·         ·           ·         ·          ·          ·
///
///   · = illegal → Aborted + ProtocolError        ³ = orderly, no throw
///   ¹ = txn check may reject → MigrationError    ⁴ = only after StateEnd
///
///   Dedup extension: ManifestBegin is legal once in Streaming before any
///   chunk (txn-checked); ManifestChunk batches must then arrive densely
///   in order within the announced total.
///   ² = "source aborted the handoff after Prepare" → MigrationError
///
///   Fencing (v5): StateBegin teaches this destination its incarnation;
///   a Prepare or Commit naming any OTHER incarnation is refused with a
///   MigrationError — a failover already moved ownership to a newer
///   incarnation and this (revived, presumed-dead) endpoint may not
///   commit a stale restore.

DestSession::DestSession(std::uint32_t session_id)
    : SessionMachine("destination", session_id) {}

SessionState DestSession::on_frame(const net::Message& frame) {
  std::lock_guard lk(mu_);
  frames_.add(1);
  switch (frame.type) {
    case net::MsgType::StateBegin:
      if (state_ != SessionState::Hello) illegal_locked(frame.type);
      begin_ = net::decode_state_begin(frame.payload);
      // The chunk size is the stream's leaf size and sizes the assembly
      // buffer's reserve stride: a zero or over-cap one is refused before
      // anything is allocated for it.
      if (begin_.chunk_bytes == 0 || begin_.chunk_bytes > msrm::kMaxLeafBytes) {
        hostile_locked(std::string(role_) + " session " + std::to_string(id_) +
                       ": StateBegin announces chunk size " +
                       std::to_string(begin_.chunk_bytes) + " outside [1, " +
                       std::to_string(msrm::kMaxLeafBytes) + "]");
      }
      txn_ = begin_.txn_id;
      transition_locked(SessionState::Streaming);
      break;

    case net::MsgType::Shutdown:
      if (state_ != SessionState::Hello) illegal_locked(frame.type);
      orderly_ = true;
      abort_reason_ = "orderly shutdown: the source never migrated";
      transition_locked(SessionState::Aborted);
      break;

    case net::MsgType::StateChunk:
      if (state_ != SessionState::Streaming || stream_complete_) {
        illegal_locked(frame.type);
      }
      ++chunks_;
      break;

    case net::MsgType::ManifestBegin: {
      // Dedup address-list announcement: right after StateBegin, before
      // any chunk, at most once per transfer.
      if (state_ != SessionState::Streaming || stream_complete_ || chunks_ != 0 ||
          manifest_total_ != 0) {
        illegal_locked(frame.type);
      }
      const net::ManifestBeginInfo info = net::decode_manifest_begin(frame.payload);
      if (info.txn_id != txn_) {
        reject_locked("ManifestBegin names a different transaction");
      }
      manifest_total_ = info.chunk_count;
      manifest_announced_ = true;
      break;
    }

    case net::MsgType::ManifestChunk: {
      if (state_ != SessionState::Streaming || !manifest_announced_) {
        illegal_locked(frame.type);
      }
      const net::ManifestChunkInfo batch = net::decode_manifest_chunk(frame.payload);
      // Batches must arrive densely in order and never overrun the
      // announced total — a peer that violates either is hostile or
      // buggy, the same taxonomy as a chunk sequence gap.
      if (batch.first_index != manifest_seen_ ||
          batch.entries.size() > manifest_total_ - manifest_seen_) {
        hostile_locked(std::string(role_) + " session " + std::to_string(id_) +
                       ": ManifestChunk batch at index " + std::to_string(batch.first_index) +
                       " (" + std::to_string(batch.entries.size()) + " entries) out of " +
                       std::to_string(manifest_total_) + " does not follow index " +
                       std::to_string(manifest_seen_));
      }
      manifest_seen_ += static_cast<std::uint32_t>(batch.entries.size());
      break;
    }

    case net::MsgType::StateEnd:
      if (state_ != SessionState::Streaming || stream_complete_) {
        illegal_locked(frame.type);
      }
      stream_complete_ = true;
      break;

    case net::MsgType::Prepare: {
      if (state_ != SessionState::Streaming || !stream_complete_) {
        illegal_locked(frame.type);
      }
      const net::TxnTokenInfo token = net::decode_txn_token(frame.payload);
      if (token.txn_id != txn_) {
        reject_locked("Prepare names a different transaction");
      }
      if (token.incarnation != begin_.incarnation) {
        FailoverMetrics::get().fenced.add(1);
        reject_locked("fenced: Prepare addresses destination incarnation " +
                      std::to_string(token.incarnation) + " but this destination is " +
                      std::to_string(begin_.incarnation));
      }
      transition_locked(SessionState::Prepared);
      break;
    }

    case net::MsgType::Commit: {
      if (state_ != SessionState::Prepared) illegal_locked(frame.type);
      const net::TxnTokenInfo token = net::decode_txn_token(frame.payload);
      if (token.txn_id != txn_) {
        reject_locked("Commit names a different transaction");
      }
      if (token.incarnation != begin_.incarnation) {
        FailoverMetrics::get().fenced.add(1);
        reject_locked("fenced: Commit addresses destination incarnation " +
                      std::to_string(token.incarnation) + " but this destination is " +
                      std::to_string(begin_.incarnation) +
                      " — a stale incarnation may not own the process");
      }
      transition_locked(SessionState::Committed);
      break;
    }

    case net::MsgType::Abort:
      if (state_ != SessionState::Prepared) illegal_locked(frame.type);
      reject_locked("source aborted the handoff after Prepare");

    default:
      illegal_locked(frame.type);
  }
  return state_;
}

void DestSession::announce() {
  std::lock_guard lk(mu_);
  if (state_ != SessionState::Idle) illegal_event_locked("announce");
  transition_locked(SessionState::Hello);
}

void DestSession::park() {
  std::lock_guard lk(mu_);
  if (state_ != SessionState::Streaming) illegal_event_locked("park");
  transition_locked(SessionState::Resuming);
}

void DestSession::resume_announced() {
  std::lock_guard lk(mu_);
  if (state_ != SessionState::Resuming) illegal_event_locked("resume_announced");
  transition_locked(SessionState::Streaming);
}

void DestSession::commit_recovered() {
  std::lock_guard lk(mu_);
  if (state_ != SessionState::Prepared) illegal_event_locked("commit_recovered");
  transition_locked(SessionState::Committed);
}

void DestSession::abort_decided(std::string why) {
  std::lock_guard lk(mu_);
  if (state_ == SessionState::Committed) illegal_event_locked("abort_decided");
  abort_reason_ = std::move(why);
  transition_locked(SessionState::Aborted);
}

bool DestSession::orderly_shutdown() const {
  std::lock_guard lk(mu_);
  return orderly_;
}

std::uint64_t DestSession::txn_id() const {
  std::lock_guard lk(mu_);
  return txn_;
}

std::uint32_t DestSession::chunks_seen() const {
  std::lock_guard lk(mu_);
  return chunks_;
}

net::StateBeginInfo DestSession::begin_info() const {
  std::lock_guard lk(mu_);
  return begin_;
}

std::uint32_t DestSession::incarnation() const {
  std::lock_guard lk(mu_);
  return begin_.incarnation;
}

}  // namespace hpm::mig
