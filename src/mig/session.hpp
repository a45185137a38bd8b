// Protocol state machines for one migration session (DESIGN.md §12).
//
// The transactional transfer protocol used to live implicitly in the
// coordinator's control flow: which frames are legal when was encoded in
// the order of recv calls, and a peer that broke the order surfaced as
// whatever exception the nearest decoder happened to throw. These two
// classes make the protocol explicit: each endpoint owns a state machine
//
//   Idle → Hello → Streaming ⇄ Resuming
//                      ↓
//                  Prepared → Committed
//        (any live state) → Aborted
//   Streaming/Prepared/Resuming/Aborted → Redirecting → Hello   (source
//        only: a primary retry or a failover re-targets the stream to a
//        fresh destination incarnation)
//
// with ONE wire entry point, on_frame(frame), that validates the frame
// against the current state, applies the transition, and returns the new
// state. The machines are pure of transport — they never touch a channel
// or a port; the endpoint drivers (dest_host.cpp, source_txn.cpp) feed
// them every frame in consumption order and ask them what is legal.
//
// Error taxonomy, asserted by the table-driven unit suite:
//   - an illegal (state, frame) pair poisons the session into Aborted and
//     throws hpm::ProtocolError — a hostile or buggy peer;
//   - the protocol-legal failure frame (Error) or a semantic mismatch
//     (wrong txn id, wrong digest, version skew) also aborts the session
//     but throws hpm::MigrationError — the protocol worked, the handoff
//     did not.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "common/error.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"

namespace hpm::mig {

enum class SessionState : std::uint8_t {
  Idle = 0,   ///< constructed; no frame exchanged yet
  Hello,      ///< endpoints announced and version-checked
  Streaming,  ///< chunked state transfer in flight
  Resuming,   ///< link lost mid-stream; awaiting a replacement binding
  Prepared,   ///< commit gate open: Prepare sent / vote cast
  Committed,  ///< ownership transferred to the destination (terminal)
  Aborted,    ///< handoff over without a transfer of ownership (terminal)
  /// Source only: the destination was declared dead (exhausted resume
  /// budget) or vetoed the handoff, and the stream is
  /// being re-targeted at a fresh destination under the next
  /// incarnation. Appended after the terminal
  /// states so the numeric gauge values of the original states persist
  /// across the v5 bump.
  Redirecting,
};

const char* session_state_name(SessionState state) noexcept;

/// State, identity, and per-session telemetry shared by both machines.
/// Every instrument is labeled `mig.session.<id>.<role>.*` (role is
/// "source" or "destination"), so N concurrent sessions in one process
/// stay individually observable:
///   mig.session.<id>.<role>.frames      frames accepted through on_frame
///   mig.session.<id>.<role>.transitions state changes (wire- and event-driven)
///   mig.session.<id>.<role>.state       current SessionState as a numeric gauge
class SessionMachine {
 public:
  SessionMachine(const char* role, std::uint32_t session_id);

  SessionMachine(const SessionMachine&) = delete;
  SessionMachine& operator=(const SessionMachine&) = delete;

  [[nodiscard]] SessionState state() const;
  [[nodiscard]] std::uint32_t session_id() const noexcept { return id_; }
  [[nodiscard]] bool terminal() const;

  /// Human-readable cause recorded by the transition into Aborted.
  [[nodiscard]] std::string abort_reason() const;

 protected:
  ~SessionMachine() = default;

  [[nodiscard]] bool terminal_locked() const {
    return state_ == SessionState::Committed || state_ == SessionState::Aborted;
  }

  void transition_locked(SessionState next);
  /// Poison into Aborted and throw ProtocolError describing the pair.
  [[noreturn]] void illegal_locked(net::MsgType type);
  /// Poison into Aborted and throw ProtocolError for a local event fired
  /// out of order — a driver bug rather than a peer bug, but equally fatal.
  [[noreturn]] void illegal_event_locked(const char* event);
  /// Poison into Aborted and throw MigrationError(why).
  [[noreturn]] void reject_locked(std::string why);
  /// Poison into Aborted and throw ProtocolError(why): a frame whose
  /// content no correct peer sends.
  [[noreturn]] void hostile_locked(std::string why);

  mutable std::mutex mu_;
  SessionState state_ = SessionState::Idle;
  std::string abort_reason_;
  const char* role_;
  std::uint32_t id_;
  obs::Counter& frames_;
  obs::Counter& transitions_;
  obs::Gauge& state_gauge_;
};

/// The source endpoint's machine: frames fed to on_frame are the ones the
/// DESTINATION sent. Local protocol actions of the source itself
/// (streaming begun, Prepare sent, Commit decided) arrive as the event
/// methods, so the machine tracks the full protocol, not just the wire's
/// inbound half.
class SourceSession : public SessionMachine {
 public:
  SourceSession(std::uint32_t session_id, std::uint64_t txn_id);

  /// Wire entry point. Legal pairs (see the transition table in
  /// session.cpp) return the post-frame state.
  SessionState on_frame(const net::Message& frame);

  /// --- local protocol events ---------------------------------------------
  void begin_streaming();             ///< Hello → Streaming (StateBegin may follow)
  void link_lost();                   ///< Streaming/Prepared/Resuming → Resuming
  void prepare_sent();                ///< Streaming → Prepared
  void commit_decided();              ///< Prepared → Committed (durable Commit record)
  void abort_decided(std::string why);///< any live state → Aborted (no throw)

  /// Redirect: the current destination is dead or vetoed the handoff, and
  /// the stream is being re-targeted — at a standby, or at a fresh primary
  /// incarnation — under `next_incarnation`. Legal from Idle (a primary
  /// dead before its Hello), Streaming/Prepared/Resuming, Aborted (a veto
  /// ends the incarnation, not the transaction), and Redirecting itself (a
  /// destination dead before ITS Hello); resets the per-destination
  /// transfer state (resume point, manifest ack) while keeping the retained
  /// stream's totals, and re-opens the machine for the new destination's Hello.
  void redirect_decided(std::uint32_t next_incarnation);

  /// Collection finished: arms ResumeHello validation (a destination may
  /// not claim more chunks than the retained stream holds) and PrepareAck
  /// digest cross-checking.
  void set_stream(std::uint64_t total_chunks, std::uint64_t digest);

  /// next_seq of the ResumeHello that re-entered Streaming.
  [[nodiscard]] std::uint32_t resume_next_seq() const;

  /// Destination incarnation the machine currently addresses (1 for the
  /// primary; redirect_decided bumps it). Every PrepareAck must echo it.
  [[nodiscard]] std::uint32_t incarnation() const;

 private:
  std::uint64_t txn_ = 0;
  std::uint64_t total_chunks_ = 0;
  std::uint64_t digest_ = 0;
  bool stream_known_ = false;
  bool manifest_acked_ = false;  ///< dedup: the one ManifestAck arrived
  std::uint32_t resume_next_seq_ = 0;
  std::uint32_t incarnation_ = 1;
};

/// The destination endpoint's machine: frames fed to on_frame are the
/// ones the SOURCE sent. The transaction id is learned from StateBegin
/// and enforced on every later frame that names one.
class DestSession : public SessionMachine {
 public:
  explicit DestSession(std::uint32_t session_id);

  SessionState on_frame(const net::Message& frame);

  /// --- local protocol events ---------------------------------------------
  void announce();                     ///< Idle → Hello (our Hello went out)
  void park();                         ///< Streaming → Resuming (link died)
  void resume_announced();             ///< Resuming → Streaming (ResumeHello sent)
  void commit_recovered();             ///< Prepared → Committed (in-doubt resolution)
  void abort_decided(std::string why); ///< any live state → Aborted (no throw)

  /// True when the Aborted state was an orderly no-migration Shutdown,
  /// not a failure.
  [[nodiscard]] bool orderly_shutdown() const;

  [[nodiscard]] std::uint64_t txn_id() const;
  [[nodiscard]] std::uint32_t chunks_seen() const;
  [[nodiscard]] net::StateBeginInfo begin_info() const;

  /// Incarnation learned from StateBegin (1 until then). A Prepare or
  /// Commit naming any other incarnation is refused — this destination
  /// was fenced off by a failover and may not own the process.
  [[nodiscard]] std::uint32_t incarnation() const;

 private:
  net::StateBeginInfo begin_{};
  std::uint64_t txn_ = 0;
  std::uint32_t chunks_ = 0;
  std::uint32_t manifest_total_ = 0;  ///< dedup: chunk count ManifestBegin announced
  std::uint32_t manifest_seen_ = 0;   ///< dedup: addresses folded from ManifestChunk
  bool manifest_announced_ = false;
  bool stream_complete_ = false;
  bool orderly_ = false;
};

}  // namespace hpm::mig
