#include "mig/source_txn.hpp"

#include <algorithm>
#include <memory>
#include <thread>

#include "mig/chunk_queue.hpp"
#include "mig/dest_host.hpp"
#include "mig/endpoint_util.hpp"
#include "mig/mig_metrics.hpp"
#include "mig/session.hpp"
#include "mig/wire_codec.hpp"
#include "obs/span.hpp"

namespace hpm::mig {

namespace {

using Clock = std::chrono::steady_clock;

enum class CommitResult : std::uint8_t { Confirmed, Unconfirmed };

/// The commit-phase waits cover peer *compute* (restore, digest verify),
/// not a single wire hop, so the per-call IO deadline is the wrong bound
/// for them. Use the same 4x grace the destination's in-doubt poll
/// applies; an unbounded (0) deadline stays unbounded.
std::chrono::milliseconds commit_grace(std::chrono::milliseconds t) {
  return t.count() > 0 ? 4 * t : t;
}

/// The destination's next frame, read on the protocol thread and
/// validated by session.on_frame(), which raises the typed rejection
/// (Error, wrong txn, fenced vote, digest mismatch) or ProtocolError
/// itself. `wait` bounds this one recv (zero = unbounded); the per-IO
/// deadline `io` is back in force for whatever the port does next.
net::Message await_reply(MessagePort& port, SourceSession& session,
                         std::chrono::milliseconds io, std::chrono::milliseconds wait) {
  port.set_timeout(wait);
  net::Message msg;
  try {
    msg = port.recv();
  } catch (...) {
    port.set_timeout(io);
    throw;
  }
  port.set_timeout(io);
  session.on_frame(msg);
  return msg;
}

/// The decision half of the handoff, run by the source after StateEnd.
/// Every pre-Commit failure journals Abort BEFORE rethrowing (so an
/// in-doubt destination resolves consistently); once the Commit record is
/// durable nothing can abort — a lost confirmation merely degrades the
/// result to Unconfirmed. KilledError passes through untouched: a crash
/// journals nothing, the log must hold only real decisions.
///
/// Every transaction frame carries the destination incarnation the stream
/// currently addresses (the fencing token): the journal records name it,
/// so post-crash arbitration knows WHICH destination the source committed
/// to, and the wire token lets a standby's machine refuse a stale frame.
///
/// The inbound half is validated by the machine (await_reply).
CommitResult source_commit_phase(MessagePort& port, SourceSession& session,
                                 std::chrono::milliseconds deadline, std::uint64_t txn,
                                 std::uint64_t digest, Journal& journal) {
  const std::uint32_t inc = session.incarnation();
  try {
    session.prepare_sent();
    port.send(net::MsgType::Prepare, net::encode_txn_token({txn, inc}));
    const net::Message reply = await_reply(port, session, deadline, commit_grace(deadline));
    if (reply.type != net::MsgType::PrepareAck) {
      // on_frame already vetted it; anything it let through that is not
      // the vote is a protocol breach.
      throw ProtocolError("unexpected message in the prepare phase");
    }
  } catch (const KilledError&) {
    throw;
  } catch (const Error&) {
    // A destination that vetoes the handoff sends its Error and then
    // drops the channel; our Prepare can hit the dead pipe before the
    // veto is read. The frame survives the close in the pipe's buffer, so
    // grace-wait for it and prefer the destination's cause over our own
    // send failure.
    std::exception_ptr cause = std::current_exception();
    bool vetoed = session.terminal();  // on_frame already rejected the vote
    if (!vetoed) {
      try {
        await_reply(port, session, deadline, std::chrono::milliseconds(50));
      } catch (const MigrationError& veto) {
        // on_frame turned the pending Error into its typed rejection.
        cause = std::make_exception_ptr(veto);
        vetoed = true;
      } catch (...) {
        // Nothing readable; the original failure stands.
      }
    }
    journal.append({JournalRecordType::Abort, txn, digest, inc, "prepare phase failed"});
    TxnMetrics::get().aborts.add(1);
    // Only a VETO is a protocol decision that ends the session. A
    // transport death here means the destination never voted: the machine
    // stays Prepared (link_lost and redirect_decided are both legal from
    // it), so the caller may still resume against a surviving destination
    // or fail over to a standby. The Abort record above fences this
    // incarnation either way — a revived primary's in-doubt poll reads it
    // and aborts instead of completing a handoff the source gave up on.
    if (vetoed && !session.terminal()) session.abort_decided("prepare phase failed");
    try {
      port.send(net::MsgType::Abort, net::encode_txn_token({txn, inc}));
    } catch (...) {
      // A dead port cannot carry the Abort; the destination's in-doubt
      // poll reads the journal record instead.
    }
    std::rethrow_exception(cause);
  }
  // --- the decision is Commit: durable before the frame leaves, irrevocable after.
  journal.append({JournalRecordType::Commit, txn, digest, inc, ""});
  TxnMetrics::get().commits.add(1);
  session.commit_decided();
  try {
    port.send(net::MsgType::Commit, net::encode_txn_token({txn, inc}));
    const net::Message fin = await_reply(port, session, deadline, commit_grace(deadline));
    if (fin.type == net::MsgType::Ack) {
      journal.append({JournalRecordType::Done, txn, digest, inc, ""});
      return CommitResult::Confirmed;
    }
  } catch (const KilledError&) {
    throw;  // post-commit source crash: the destination recovers from the journal
  } catch (const Error&) {
  }
  return CommitResult::Unconfirmed;
}

/// One destination incarnation: its host plus the config and journal the
/// host borrows for its whole life.
struct Destination {
  Destination(const RunOptions& dest_options, MigrationReport& report,
              const std::string& journal_path, const std::string& source_journal_path,
              std::chrono::milliseconds deadline, std::uint32_t session_id)
      : options(dest_options),
        host(options, report, journal, source_journal_path, deadline, session_id) {
    if (!journal_path.empty()) journal.open(journal_path);
  }

  RunOptions options;
  Journal journal;
  DestinationHost host;
};

}  // namespace

TxnResult run_pipelined_transaction(
    const RunOptions& options, MigrationReport& report, RetainedStream& stream,
    const SessionWiring& wiring, std::chrono::milliseconds deadline, Journal& src_journal,
    std::uint64_t txn) {
  TxnMetrics::get().begins.add(1);
  report.txn_id = txn;
  const int total_attempts = 1 + std::max(0, options.max_retries);

  SourceSession session(wiring.session_id, txn);
  std::unique_ptr<MessagePort> src_port;
  /// The incarnation the stream currently addresses.
  std::unique_ptr<Destination> dest;
  /// Some incarnation ran the workload (fencing lets at most one).
  bool dest_finished = false;

  auto open_destination = [&](const RunOptions& dest_options, std::uint32_t inc,
                              std::unique_ptr<MessagePort> port) {
    dest = std::make_unique<Destination>(
        dest_options, report,
        options.journal_dir.empty()
            ? std::string()
            : options.journal_dir + "/" + keyed_dest_journal_name(txn, inc),
        src_journal.path(), deadline, wiring.session_id);
    dest->host.start(std::move(port));
  };
  /// Tear the current destination down completely, so no straggler of it
  /// can race the next incarnation's frames.
  auto close_destination = [&] {
    if (dest != nullptr) {
      dest->host.close();
      dest->host.join();
      dest_finished = dest_finished || dest->host.finished();
      dest.reset();
    }
    try {
      if (src_port != nullptr) src_port->close();
    } catch (...) {
    }
    src_port.reset();
  };

  int attempts_used = 1;
  CoordinatorMetrics::get().attempts.add(1);
  report.attempts = 1;

  // The chunk size is also the stream's leaf size (grammar v4):
  // run_migration has checked it lies in [1, msrm::kMaxLeafBytes].
  const std::uint32_t cb = options.chunk_bytes;
  // Dedup'd transfer (DESIGN.md §15): the manifest needs every chunk
  // address up front, so the stream is collected in full before anything
  // but StateBegin goes out — no sender thread, no collect sink. With
  // pipeline off the same collect-first order holds, minus the manifest.
  const bool dedup = !options.chunk_cache_dir.empty();

  ChunkQueue queue(kChunkQueueCapacity);
  std::exception_ptr sender_error;
  std::thread sender;
  auto join_sender = [&] {
    if (sender.joinable()) sender.join();
  };
  /// Abort the port so a peer blocked on it wakes with an error.
  auto fail_channel = [&] {
    try {
      if (src_port != nullptr) src_port->abort();
    } catch (...) {
    }
  };
  /// Record a lost physical binding in the machine — from the states where
  /// a binding can be lost. (A rejected frame already landed in Aborted.)
  auto note_link_lost = [&] {
    const SessionState s = session.state();
    if (s == SessionState::Streaming || s == SessionState::Prepared ||
        s == SessionState::Resuming) {
      session.link_lost();
    }
  };

  std::exception_ptr source_error;
  /// Set when options.program itself throws (anything but MigrationExit):
  /// a workload failure is the caller's to see, never a retryable
  /// transport fault — rethrown after teardown.
  std::exception_ptr program_error;
  double measured_tx = 0;
  bool collected = false;
  /// False when the primary could not be reached or died before its Hello
  /// arrived: attempt 1 then runs the program sink-less (full in-memory
  /// collection) and a failover or primary retry replays the retained
  /// stream at a fresh incarnation.
  bool rendezvoused = false;
  bool killed = false;
  bool attempt_ok = false;
  bool unconfirmed = false;
  std::uint64_t digest = 0;
  net::StateEndInfo end;
  Clock::time_point pipeline_start{};

  // Chunks are views of the retained stream, each sealed and named by the
  // collect tap's digest of it, kept beside the stream.
  auto chunk_len = [&](std::uint64_t seq) {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(cb, stream.size() - seq * cb));
  };

  /// Chunks [from, end) of the retained stream, then StateEnd, on the
  /// current port. `coded` frames every chunk with the dedup codec tag
  /// (raw, tag 0), which a destination that negotiated a manifest expects
  /// — former cache hits included, since a resumed destination stops
  /// splicing when the link drops.
  auto send_chunks = [&](std::uint64_t from, bool coded) {
    PipelineMetrics& pm = PipelineMetrics::get();
    for (std::uint64_t seq = from; seq < end.chunk_count; ++seq) {
      const auto body = stream.bytes().subspan(seq * cb, chunk_len(seq));
      const auto seq32 = static_cast<std::uint32_t>(seq);
      if (coded) {
        src_port->send(net::MsgType::StateChunk, net::encode_state_chunk_coded(seq32, 0, body));
      } else {
        src_port->send_chunk(seq32, body, stream.chunk_digest(seq));
      }
      pm.chunks.add(1);
      pm.chunk_bytes.record(static_cast<double>(body.size()));
    }
    src_port->send(net::MsgType::StateEnd, net::encode_state_end(end));
  };

  /// Dedup negotiation + residual transfer on the CURRENT port:
  /// announce the manifest, learn the destination's miss set, ship only
  /// the misses (codec-compressed when it pays), then StateEnd. Run
  /// against every destination configured with a chunk store — the
  /// primary, a primary retry, or a warm standby, each of which answers
  /// with its OWN store's misses.
  auto negotiate_and_send = [&] {
    DedupMetrics& dm = DedupMetrics::get();
    const std::uint32_t nchunks = end.chunk_count;
    const std::uint8_t caps = codec_caps_of(options.wire_codec);
    std::uint64_t wire = 0;
    {
      const Bytes payload = net::encode_manifest_begin({txn, nchunks, cb, caps});
      wire += payload.size();
      src_port->send(net::MsgType::ManifestBegin, payload);
    }
    std::vector<net::ManifestEntry> batch;
    batch.reserve(net::kManifestEntriesPerFrame);
    std::uint32_t batch_first = 0;
    for (std::uint32_t i = 0; i < nchunks; ++i) {
      // Chunk i's address is the collect tap's digest of it: naming costs
      // no pass over the stream.
      batch.push_back({stream.chunk_digest(i), chunk_len(i)});
      if (batch.size() == net::kManifestEntriesPerFrame || i + 1 == nchunks) {
        const Bytes payload = net::encode_manifest_chunk(batch_first, batch);
        wire += payload.size();
        src_port->send(net::MsgType::ManifestChunk, payload);
        batch_first = i + 1;
        batch.clear();
      }
    }
    dm.manifest_chunks.add(nchunks);
    report.dedup_manifest_chunks = nchunks;

    // The destination loads (and digest-verifies) every candidate hit
    // before answering, so the wait is compute-bounded like a vote.
    const net::Message ackmsg =
        await_reply(*src_port, session, deadline, commit_grace(deadline));
    if (ackmsg.type != net::MsgType::ManifestAck) {
      throw ProtocolError("expected ManifestAck during manifest negotiation");
    }
    const net::ManifestAckInfo ack = net::decode_manifest_ack(ackmsg.payload);
    if (ack.codec > static_cast<std::uint8_t>(WireCodec::VarintDelta) ||
        (ack.codec != 0 && (caps & kCodecCapVarintDelta) == 0)) {
      throw ProtocolError("destination chose a codec the source never offered");
    }
    const WireCodec codec = static_cast<WireCodec>(ack.codec);
    std::int64_t prev_idx = -1;
    for (const std::uint32_t idx : ack.misses) {
      if (idx >= nchunks || static_cast<std::int64_t>(idx) <= prev_idx) {
        throw ProtocolError("ManifestAck miss set is out of range or unsorted");
      }
      prev_idx = idx;
    }

    PipelineMetrics& pm = PipelineMetrics::get();
    for (const std::uint32_t idx : ack.misses) {
      const auto body = stream.bytes().subspan(idx * cb, chunk_len(idx));
      Bytes payload;
      if (codec == WireCodec::VarintDelta) {
        Bytes coded = codec_encode(body);
        if (coded.size() < body.size()) {
          dm.codec_ratio.record(static_cast<double>(coded.size()) /
                                static_cast<double>(body.size()));
          payload = net::encode_state_chunk_coded(
              idx, static_cast<std::uint8_t>(WireCodec::VarintDelta), coded);
        } else {
          dm.codec_ratio.record(1.0);  // raw fallback: encoding did not pay
        }
      }
      if (payload.empty()) payload = net::encode_state_chunk_coded(idx, 0, body);
      wire += payload.size();
      src_port->send(net::MsgType::StateChunk, payload);
      pm.chunks.add(1);
      pm.chunk_bytes.record(static_cast<double>(payload.size() - 5));
    }
    {
      const Bytes payload = net::encode_state_end(end);
      wire += payload.size();
      src_port->send(net::MsgType::StateEnd, payload);
    }
    report.dedup_miss_chunks = ack.misses.size();
    report.dedup_hit_chunks = nchunks - ack.misses.size();
    report.dedup_wire_bytes = wire;
  };

  /// Journal Begin, then send StateBegin, to incarnation `inc`:
  /// write-ahead, so the incarnation exists on disk before any frame names
  /// it on the wire.
  auto begin_stream = [&](std::uint32_t inc, const std::string& note) {
    src_journal.append({JournalRecordType::Begin, txn, 0, inc, note});
    src_port->send(net::MsgType::StateBegin, net::encode_state_begin({cb, txn, inc}));
  };

  /// The commit phase on the current port: unless it throws, the attempt
  /// succeeded, confirmed or not.
  auto commit_phase = [&] {
    unconfirmed = source_commit_phase(*src_port, session, deadline, txn, digest,
                                      src_journal) == CommitResult::Unconfirmed;
    attempt_ok = true;
  };

  /// The collect-first transfer to the current destination incarnation:
  /// StateBegin, then the manifest negotiation or the whole stream, then
  /// the commit phase.
  auto send_collected = [&](const std::string& note) {
    const std::uint32_t inc = session.incarnation();
    {
      obs::Span tx_span("mig.tx");
      tx_span.arg("transport", std::string(net::transport_name(options.transport)));
      tx_span.arg("incarnation", std::uint64_t{inc});
      begin_stream(inc, note);
      if (!dest->options.chunk_cache_dir.empty()) {
        negotiate_and_send();
      } else {
        send_chunks(0, false);
      }
      measured_tx += tx_span.finish();
    }
    commit_phase();
  };

  /// Record a failed attempt and stop its port, classifying a source crash.
  auto attempt_failed = [&](const std::string& label, const Error& e) {
    if (dynamic_cast<const KilledError*>(&e) != nullptr) killed = true;
    report.failure_causes.push_back(label + ": " + e.what());
    fail_channel();
  };

  /// Re-target the stream at a fresh destination incarnation over `fresh`:
  /// start its host, take its Hello, and run send_collected against it —
  /// a full replay from chunk 0, or a negotiation against the
  /// destination's own chunk store when it has one.
  auto redirect = [&](PortPair fresh, std::uint32_t inc, const RunOptions& dest_options,
                      const std::string& label) {
    close_destination();
    try {
      session.redirect_decided(inc);
      src_port = std::move(fresh.source);
      src_port->set_timeout(deadline);
      open_destination(dest_options, inc, std::move(fresh.destination));
      session.on_frame(src_port->recv());  // the new incarnation's own Hello
      session.begin_streaming();
      send_collected(label);
    } catch (const Error& e) {
      attempt_failed(label, e);
    }
  };

  // --- attempt 1: stream while collecting ----------------------------------
  try {
    try {
      PortPair ports = wiring.connect();
      src_port = std::move(ports.source);
      src_port->set_timeout(deadline);
      open_destination(options, 1, std::move(ports.destination));
      session.on_frame(src_port->recv());  // Hello: version-checked by the machine
      rendezvoused = true;
    } catch (const KilledError&) {
      throw;  // an injected SOURCE death is a crash, never a dead primary
    } catch (const Error& e) {
      report.failure_causes.push_back("attempt 1: " + std::string(e.what()));
    }
    // Overlap collect/tx/restore only with a live primary: without one the
    // sender thread never starts, and a bounded queue would block
    // collection at capacity.
    const bool overlap = rendezvoused && options.pipeline && !dedup;
    if (rendezvoused) session.begin_streaming();

    if (overlap) sender = std::thread([&] {
      try {
        PipelineMetrics& pm = PipelineMetrics::get();
        std::unique_ptr<obs::Span> tx_span;
        QueuedChunk chunk;
        std::uint32_t seq = 0;
        while (queue.pop(chunk)) {
          if (tx_span == nullptr) {
            tx_span = std::make_unique<obs::Span>("mig.tx");
            tx_span->arg("transport",
                         std::string(net::transport_name(options.transport)));
            begin_stream(1, "source");
          }
          src_port->send_chunk(seq++, chunk.bytes, chunk.digest);
          pm.chunks.add(1);
          pm.chunk_bytes.record(static_cast<double>(chunk.bytes.size()));
        }
        if (const auto e = queue.end_info()) {
          src_port->send(net::MsgType::StateEnd, net::encode_state_end(*e));
          if (tx_span != nullptr) measured_tx = tx_span->finish();
        }
      } catch (...) {
        sender_error = std::current_exception();
        queue.poison();  // collection must never block on a dead sender
      }
    });

    ti::TypeTable types;
    options.register_types(types);
    MigContext ctx(types);
    // The sender reads queued chunks in place, in ctx's collection buffers:
    // on every way out of this scope it is stopped before ctx goes.
    struct StopSender {
      ChunkQueue& queue;
      std::thread& sender;
      ~StopSender() {
        queue.poison();
        queue.close(std::nullopt);
        if (sender.joinable()) sender.join();
      }
    } stop_before_ctx{queue, sender};
    ctx.set_migrate_at_poll(options.migrate_at_poll);
    ctx.set_leaf_bytes(cb);
    if (overlap) {
      ctx.set_collect_sink([&](std::span<const std::uint8_t> bytes, std::uint64_t d) {
        if (pipeline_start == Clock::time_point{}) pipeline_start = Clock::now();
        queue.push({bytes, d});
      });
    }
    try {
      collected = run_source_program(options, ctx);
    } catch (...) {
      program_error = std::current_exception();
      throw;
    }
    if (collected) {
      // Retained, with its chunk digests, for resumes, retries, failover.
      stream.set(ctx.take_stream(), ctx.take_chunk_digests());
      digest = ctx.stream_digest();
      report.stream_digest = digest;
      report.stream_bytes = stream.size();
      report.collect_seconds = ctx.metrics().collect_seconds;
      report.source_arch = ctx.space().arch().name;
      // Stream-derived: a resume's StateEnd must describe the whole
      // fixed-size chunking.
      end.chunk_count = static_cast<std::uint32_t>((stream.size() + cb - 1) / cb);
      end.total_bytes = stream.size();
      end.digest = digest;
      session.set_stream(end.chunk_count, digest);
      queue.close(end);
      join_sender();
    }
    report.source_polls = ctx.poll_count();

    if (!collected) {
      queue.close(std::nullopt);
      join_sender();
      if (rendezvoused) src_port->send(net::MsgType::Shutdown, {});
      session.abort_decided("no migration was triggered");
    } else {
      if (overlap) {
        if (sender_error != nullptr) std::rethrow_exception(sender_error);
        commit_phase();
      } else if (rendezvoused) {
        if (dedup) pipeline_start = Clock::now();
        send_collected("source");
      }
      // Without a rendezvous attempt 1 is over (its failure is already
      // recorded): the retry loop replays the retained stream.
    }
  } catch (...) {
    source_error = std::current_exception();
    queue.poison();
    queue.close(std::nullopt);
    join_sender();
    fail_channel();
  }

  // Classify the attempt-1 failure before deciding how to retry.
  bool fatal_other = false;  // non-hpm exception: propagate after teardown
  if (source_error != nullptr && program_error == nullptr) {
    try {
      std::rethrow_exception(source_error);
    } catch (const Error& e) {
      if (collected) {
        attempt_failed("attempt 1", e);
      } else {
        killed = dynamic_cast<const KilledError*>(&e) != nullptr;
      }
    } catch (...) {
      fatal_other = true;
    }
  }

  // --- retries, on one budget ----------------------------------------------
  // A destination that merely lost its link resumes from the chunk count
  // it announces in ResumeHello. A dead one fails over to the standbys, once. Past both —
  // or after a veto, which ends an incarnation but not the transaction —
  // the stream replays from chunk 0 to a fresh primary incarnation from
  // wiring.connect(), which votes anew before anything is committed.
  RetryBackoff backoff;
  std::uint32_t next_inc = 2;
  bool failed_over = false;
  /// Count one more attempt; returns the label its failure cause carries.
  auto next_attempt = [&] {
    ++attempts_used;
    report.attempts = attempts_used;
    CoordinatorMetrics::get().attempts.add(1);
    return "attempt " + std::to_string(attempts_used);
  };
  while (collected && !attempt_ok && !unconfirmed && !killed && !fatal_other &&
         program_error == nullptr) {
    const SessionState state = session.state();
    const bool linked = state == SessionState::Streaming ||
                        state == SessionState::Prepared || state == SessionState::Resuming;
    if (attempts_used < total_attempts && linked && dest != nullptr &&
        dest->host.resumable()) {
      // --- resume: retransmit only past the destination's chunk count
      backoff.wait();
      const std::string label = next_attempt();
      CoordinatorMetrics::get().retries.add(1);
      try {
        note_link_lost();  // the machine must be Resuming to accept ResumeHello
        PortPair fresh = wiring.connect();
        if (!dest->host.offer(std::move(fresh.destination))) {
          // The destination died meanwhile; the next round replays.
          report.failure_causes.push_back(label +
                                          ": destination no longer accepts a resume channel");
          continue;
        }
        src_port = std::move(fresh.source);
        src_port->set_timeout(deadline);
        session.on_frame(src_port->recv());  // ResumeHello: version/txn/bound-checked
        const std::uint32_t next_seq = session.resume_next_seq();
        ResumeMetrics::get().attempts.add(1);
        ResumeMetrics::get().chunks_skipped.add(next_seq);
        report.resumed_from_seq = static_cast<std::int64_t>(next_seq);
        {
          obs::Span tx_span("mig.tx");
          tx_span.arg("transport", std::string(net::transport_name(options.transport)));
          tx_span.arg("resumed_from", std::uint64_t{next_seq});
          send_chunks(next_seq, !dest->options.chunk_cache_dir.empty());
          measured_tx += tx_span.finish();
        }
        commit_phase();
      } catch (const Error& e) {
        attempt_failed(label, e);
      }
    } else if (!failed_over && !session.terminal() && options.failover.enabled() &&
               wiring.connect_standby != nullptr) {
      // --- destination failover: re-target the stream at each standby.
      // A terminal session is excluded on purpose: a destination that
      // REJECTED the handoff (Error, digest mismatch) made a protocol
      // decision, and a standby would just re-earn it.
      failed_over = true;
      const Clock::time_point declared_dead = Clock::now();
      FailoverMetrics::get().triggered.add(1);
      close_destination();
      const FailoverPolicy& fo = options.failover;
      for (std::size_t k = 0; k < fo.standbys.size(); ++k) {
        const DestinationCandidate& cand = fo.standbys[k];
        const std::string label =
            "failover to " +
            (cand.name.empty() ? "standby-" + std::to_string(k + 1) : cand.name);
        const std::uint32_t inc = next_inc++;

        // Dial under the run's retry budget, per candidate.
        PortPair fresh;
        bool dialed = false;
        std::string dial_cause;
        RetryBackoff dial_backoff;
        for (int d = 0; d < total_attempts && !dialed; ++d) {
          if (d > 0) dial_backoff.wait();
          try {
            fresh = wiring.connect_standby(k);
            dialed = true;
          } catch (const Error& e) {
            dial_cause = e.what();
          }
        }
        if (!dialed) {
          FailoverMetrics::get().dial_failures.add(1);
          report.failure_causes.push_back(label + ": " + dial_cause);
          continue;
        }

        next_attempt();
        FailoverMetrics::get().redirects.add(1);
        ++report.failovers;
        // The candidate runs under its own destination config (its own
        // chunk store, its own chaos script) and its own intent journal.
        RunOptions cand_options = options;
        cand_options.chunk_cache_dir = cand.chunk_cache_dir;
        cand_options.dest_fault_plan = cand.dest_fault_plan;
        redirect(std::move(fresh), inc, cand_options, label);
        if (attempt_ok || unconfirmed) {
          const double downtime =
              std::chrono::duration<double>(Clock::now() - declared_dead).count();
          report.failover_downtime_seconds = downtime;
          FailoverMetrics::get().downtime.record(downtime);
        }
        if (attempt_ok || unconfirmed || killed) break;
      }
    } else if (attempts_used < total_attempts) {
      // --- primary retry: a fresh incarnation from wiring.connect()
      close_destination();
      backoff.wait();
      const std::string label = next_attempt();
      CoordinatorMetrics::get().retries.add(1);
      try {
        redirect(wiring.connect(), next_inc++, options, label);
      } catch (const Error& e) {
        // The dial itself failed: as retryable as a failure mid-transfer.
        attempt_failed(label, e);
      }
    } else {
      break;
    }
  }
  const Clock::time_point pipeline_end = Clock::now();

  // --- teardown -------------------------------------------------------------
  close_destination();

  if (program_error != nullptr) std::rethrow_exception(program_error);
  if (fatal_other) std::rethrow_exception(source_error);

  if (!collected) {
    // The workload already finished on the source; a torn-down teardown
    // handshake doesn't change its fate.
    return TxnResult::CompletedLocally;
  }
  report.dest_incarnation = session.incarnation();
  if (killed) {
    report.migrated = dest_finished;
    return TxnResult::SourceCrashed;
  }
  if (unconfirmed) {
    report.migrated = dest_finished;
    return TxnResult::CommittedUnconfirmed;
  }
  if (attempt_ok) {
    report.migrated = true;
    report.tx_seconds =
        options.throttle ? measured_tx : options.link.transfer_seconds(stream.size());
    // Overlap: wall-clock from the first chunk leaving collection to the
    // acknowledged restore, vs. the sum of the three phase timings. Overlap
    // off gives 0 (no first chunk left collection); perfect overlap
    // approaches 1.
    const double wall = std::chrono::duration<double>(pipeline_end - pipeline_start).count();
    const double phases = report.collect_seconds + measured_tx + report.restore_seconds;
    if (pipeline_start != Clock::time_point{} && wall > 0 && phases > 0) {
      report.overlap_ratio = std::clamp(1.0 - wall / phases, 0.0, 1.0);
    }
    PipelineMetrics::get().overlap.record(report.overlap_ratio);
    return TxnResult::Migrated;
  }
  return TxnResult::Failed;
}

}  // namespace hpm::mig
