#include "mig/dest_host.hpp"

#include <thread>

#include "mig/endpoint_util.hpp"
#include "mig/mig_metrics.hpp"
#include "mig/wire_codec.hpp"

namespace hpm::mig {

namespace {

using Clock = std::chrono::steady_clock;

/// What the source durably decided about `txn` FOR THIS INCARNATION, per
/// its journal. Scans the raw records (rather than recover_from_journals)
/// so an in-doubt destination can distinguish "source aborted" from
/// "source has not decided YET" and poll for the verdict. Last decisive
/// record wins. The incarnation makes the poll fencing-aware: a record
/// addressed to a NEWER incarnation means the source already re-targeted
/// the transaction past us — whatever happens over there, this (presumed
/// dead, now revived) destination must resolve to Abort, never adopt a
/// Commit that names someone else.
enum class SourceDecision : std::uint8_t { Undecided, Commit, Abort };

SourceDecision last_source_decision(const std::string& path, std::uint64_t txn,
                                    std::uint32_t incarnation) {
  SourceDecision decision = SourceDecision::Undecided;
  for (const JournalRecord& r : Journal::replay(path)) {
    if (r.txn_id != txn) continue;
    if (r.incarnation > incarnation) {
      decision = SourceDecision::Abort;  // fenced: the source moved on
      continue;
    }
    if (r.incarnation < incarnation) continue;  // stale history, not ours
    switch (r.type) {
      case JournalRecordType::Commit:
      case JournalRecordType::Done:
        decision = SourceDecision::Commit;
        break;
      case JournalRecordType::Abort:
        decision = SourceDecision::Abort;
        break;
      default:
        break;
    }
  }
  return decision;
}

}  // namespace

DestinationHost::DestinationHost(const RunOptions& options, MigrationReport& report,
                                 Journal& journal, std::string source_journal_path,
                                 std::chrono::milliseconds deadline,
                                 std::uint32_t session_id)
    : options_(options),
      report_(report),
      journal_(journal),
      source_journal_path_(std::move(source_journal_path)),
      deadline_(deadline),
      session_(session_id) {}

DestinationHost::~DestinationHost() {
  close();
  join();
}

void DestinationHost::start(std::unique_ptr<MessagePort> port) {
  port_ = std::move(port);
  thread_ = std::thread([this] { run(); });
}

bool DestinationHost::offer(std::unique_ptr<MessagePort> port) {
  std::lock_guard lk(mu_);
  if (dead_ || finished_ || closed_) return false;
  if (deadline_.count() > 0) port->set_timeout(deadline_);
  offered_ = std::move(port);
  cv_.notify_all();
  return true;
}

void DestinationHost::close() {
  std::lock_guard lk(mu_);
  closed_ = true;
  // Wound the port too, as teardown safety: a destination blocked in recv
  // (rx mid-stream or the commit gate, deadline 0) must wake on the
  // source's close alone, not only when the source's own abort happens to
  // reach this end of the channel.
  if (port_ != nullptr) {
    try {
      port_->abort();
    } catch (...) {
    }
  }
  cv_.notify_all();
}

void DestinationHost::join() {
  if (thread_.joinable()) thread_.join();
}

bool DestinationHost::resumable() const {
  std::lock_guard lk(mu_);
  return !dead_ && !finished_;
}

bool DestinationHost::finished() const {
  std::lock_guard lk(mu_);
  return finished_;
}

MessagePort* DestinationHost::current() const {
  std::lock_guard lk(mu_);
  return port_.get();
}

void DestinationHost::set_dead(std::exception_ptr error, bool killed) {
  std::unique_ptr<MessagePort> orphan;
  {
    std::lock_guard lk(mu_);
    dead_ = true;
    if (error_ == nullptr) error_ = error;
    orphan = std::move(offered_);
    cv_.notify_all();
  }
  if (orphan == nullptr) return;
  // offer() accepted this port before dead_ was set, so the source is
  // waiting on it for a ResumeHello: answer with the cause (a crashed
  // process sends nothing), then abort it so the source's recv wakes.
  try {
    if (!killed) {
      const std::string text = exception_text(error);
      orphan->send(net::MsgType::Error, Bytes(text.begin(), text.end()));
    }
    orphan->abort();
  } catch (...) {
  }
}

void DestinationHost::mark_finished() {
  std::lock_guard lk(mu_);
  finished_ = true;
}

/// Park until the source offers a replacement port (true) or closes the
/// session (false).
bool DestinationHost::adopt_replacement() {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [&] { return offered_ != nullptr || closed_; });
  if (offered_ == nullptr) return false;
  port_ = std::move(offered_);
  return true;
}

void DestinationHost::run() {
  try {
    ti::TypeTable types;
    options_.register_types(types);
    MigContext ctx(types);
    session_.announce();
    current()->send(net::MsgType::Hello, hello_payload(ctx.space().arch().name));
    net::Message first = current()->recv();
    if (deadline_.count() > 0) current()->set_timeout(deadline_);
    if (session_.on_frame(first) == SessionState::Aborted) {
      // A legal Shutdown: the source never migrated.
      mark_finished();
      release_port();
      return;
    }
    const net::StateBeginInfo begin = session_.begin_info();
    journal_.append({JournalRecordType::Begin, begin.txn_id, 0, begin.incarnation,
                     "destination up"});
    ChunkAssembler assembler(begin.chunk_bytes);
    // The chunk cache outlives the transfer only as files; the in-memory
    // index is rebuilt per migration from the directory scan.
    std::unique_ptr<ChunkStore> store;
    if (!options_.chunk_cache_dir.empty()) {
      store = std::make_unique<ChunkStore>(options_.chunk_cache_dir);
      store->open();
    }
    std::thread rx([&] { rx_loop(assembler, begin.txn_id, store.get()); });
    ctx.set_commit_gate([&](std::uint64_t digest) { commit_gate(begin.txn_id, digest); });
    try {
      ctx.begin_restore_streaming(assembler);
      run_destination_program(options_, ctx, report_);
    } catch (...) {
      // rx drains until StateEnd, a port failure, or session close — the
      // source guarantees one of them on every path.
      rx.join();
      throw;
    }
    rx.join();
    mark_finished();  // the workload ran; a lost confirmation cannot undo that
    try {
      current()->send(net::MsgType::Ack, {});
    } catch (...) {
      // Best-effort: the source merely reports CommittedUnconfirmed.
    }
  } catch (const KilledError&) {
    // A crashed process sends nothing and journals nothing more.
    if (!session_.terminal()) session_.abort_decided("destination crashed");
    set_dead(std::current_exception(), true);
  } catch (...) {
    // Every other failure — a damaged frame, a bad stream, a vetoed
    // restore — answers Error, the one failure frame.
    if (!session_.terminal()) {
      session_.abort_decided(exception_text(std::current_exception()));
    }
    set_dead(std::current_exception(), killed_.load());
    if (!killed_.load()) {
      try {
        const std::string text = exception_text(std::current_exception());
        current()->send(net::MsgType::Error, Bytes(text.begin(), text.end()));
      } catch (...) {
      }
    }
  }
  release_port();
}

/// Drop the port: orderly close on success, abort on failure so a peer
/// blocked mid-recv wakes instead of waiting out its deadline.
void DestinationHost::release_port() {
  std::unique_ptr<MessagePort> port;
  bool failed = false;
  {
    std::lock_guard lk(mu_);
    port = std::move(port_);
    failed = dead_;
  }
  if (port == nullptr) return;
  try {
    if (failed) {
      port->abort();
    } else {
      port->close();
    }
  } catch (...) {
  }
}

void DestinationHost::rx_loop(ChunkAssembler& assembler, std::uint64_t txn,
                              ChunkStore* store) {
  // Manifest negotiation state (dedup, DESIGN.md §15). The address list
  // doubles as the per-chunk expected-length table the codec decode is
  // bounded by, so a hostile coded payload cannot inflate past it.
  std::vector<ChunkAddr> manifest;
  bool manifest_announced = false;
  std::uint32_t manifest_total = 0;
  std::uint8_t offered_caps = 0;
  for (;;) {
    net::Message msg;
    try {
      msg = current()->recv();
    } catch (const KilledError&) {
      // Killed mid-stream: a crashed process sends nothing.
      killed_.store(true);
      assembler.fail("destination crashed");
      return;
    } catch (const NetError& e) {
      // The port died mid-stream, but the stream itself is resumable from
      // the assembler's watermark: park for a replacement port. The
      // source retransmits every chunk from that watermark raw — former
      // cache hits included — so splice-ahead must stop now. The port is
      // wounded first: a damaged frame or a recv deadline leaves the link
      // itself up, and on an exclusive channel the abort lets the source
      // see the loss now rather than at its own next deadline.
      try {
        current()->abort();
      } catch (...) {
      }
      assembler.mark_resumed();
      session_.park();
      if (!adopt_replacement()) {
        assembler.fail(std::string("chunk stream abandoned: ") + e.what());
        return;
      }
      try {
        current()->send(net::MsgType::ResumeHello,
                        net::encode_resume_hello({net::kProtocolVersion, txn,
                                                  assembler.chunks_received()}));
      } catch (const KilledError&) {
        killed_.store(true);
        assembler.fail("destination crashed");
        return;
      } catch (const NetError&) {
        // That port died instantly; park again. The machine expects
        // Streaming when it parks, so record the brief resume first.
        session_.resume_announced();
        continue;
      }
      session_.resume_announced();
      continue;
    }
    try {
      session_.on_frame(msg);
    } catch (const ProtocolError& e) {
      // A frame the machine rejects in this state — a hostile or buggy
      // peer, not a recoverable link fault.
      assembler.fail(e.what());
      return;
    }
    if (msg.type == net::MsgType::StateChunk) {
      try {
        const std::uint32_t seq = net::decode_state_chunk_seq(msg.payload);
        if (!manifest_announced) {
          // The digest recv_message took to check the seal is the chunk's
          // leaf digest: the restorer's root is built from it.
          assembler.append(seq, std::span<const std::uint8_t>(msg.payload).subspan(4),
                           msg.body_digest);
        } else {
          // Dedup framing: u32 seq | u8 codec tag | body.
          if (msg.payload.size() < 5) throw NetError("coded chunk: short payload");
          const std::uint8_t tag = msg.payload[4];
          const std::span<const std::uint8_t> wire =
              std::span<const std::uint8_t>(msg.payload).subspan(5);
          Bytes decoded;
          std::span<const std::uint8_t> body = wire;
          if (tag == static_cast<std::uint8_t>(WireCodec::VarintDelta)) {
            if (seq >= manifest.size()) {
              throw NetError("coded chunk names an index outside the manifest");
            }
            decoded = codec_decode(wire, manifest[seq].length);
            body = decoded;
          } else if (tag != 0) {
            throw NetError("coded chunk: unknown codec tag");
          }
          // The frame's body digest covers the tag and the coded bytes, so
          // the decoded chunk's digest comes from put(), which hashes the
          // body to address it — self-addressing, so a lying manifest
          // cannot poison the cache (DESIGN.md §15). Caching is
          // best-effort: a full disk must not fail the migration, only the
          // next run's dedup.
          std::uint64_t digest = 0;
          bool addressed = false;
          if (store != nullptr) {
            try {
              digest = store->put(body).digest;
              addressed = true;
            } catch (...) {
            }
          }
          if (!addressed) digest = StreamDigest::of(body);
          assembler.append(seq, body, digest);
        }
      } catch (const NetError&) {
        // ProtocolError from the assembler (already poisoned with the
        // typed reason), a short payload, or a hostile coded body.
        assembler.fail("malformed StateChunk payload");
        return;
      }
    } else if (msg.type == net::MsgType::ManifestBegin ||
               msg.type == net::MsgType::ManifestChunk) {
      // The machine already vetted ordering, density, and the txn id.
      try {
        if (msg.type == net::MsgType::ManifestBegin) {
          const net::ManifestBeginInfo mb = net::decode_manifest_begin(msg.payload);
          manifest.reserve(mb.chunk_count);
          manifest_total = mb.chunk_count;
          offered_caps = mb.codec_caps;
          manifest_announced = true;
        } else {
          const net::ManifestChunkInfo batch = net::decode_manifest_chunk(msg.payload);
          for (const net::ManifestEntry& e : batch.entries) {
            manifest.push_back({e.digest, e.length});
          }
        }
      } catch (const NetError&) {
        assembler.fail("malformed manifest payload");
        return;
      }
      if (manifest.size() == manifest_total) {
        // The full address list is in: resolve hits against the store and
        // answer with the miss set. A corrupted cache entry fails its
        // digest check inside begin_manifest and lands in the misses —
        // re-requested within this same negotiation.
        if (store == nullptr) {
          assembler.fail("manifest offered but no chunk cache is configured");
          return;
        }
        std::vector<std::uint32_t> misses;
        try {
          misses = assembler.begin_manifest(manifest, *store);
        } catch (const ProtocolError& e) {
          assembler.fail(e.what());
          return;
        }
        const std::uint64_t hits = manifest.size() - misses.size();
        std::uint64_t saved = 0;
        {
          std::size_t mi = 0;
          for (std::size_t i = 0; i < manifest.size(); ++i) {
            if (mi < misses.size() && misses[mi] == i) {
              ++mi;
            } else {
              saved += manifest[i].length;
            }
          }
        }
        DedupMetrics& dm = DedupMetrics::get();
        dm.hits.add(hits);
        dm.misses.add(misses.size());
        dm.bytes_saved.add(saved);
        store->note_run(manifest.size(), hits, misses.size());
        const WireCodec codec = negotiate_codec(offered_caps, options_.wire_codec);
        try {
          current()->send(
              net::MsgType::ManifestAck,
              net::encode_manifest_ack({static_cast<std::uint8_t>(codec), misses}));
        } catch (const KilledError&) {
          killed_.store(true);
          assembler.fail("destination crashed");
          return;
        } catch (const NetError&) {
          // The ack path is dying; the next recv parks us and the resume
          // retransmits everything raw.
        }
      }
    } else if (msg.type == net::MsgType::StateEnd) {
      try {
        assembler.finish(net::decode_state_end(msg.payload));
      } catch (const NetError&) {
        assembler.fail("malformed StateEnd payload");
      }
      if (store != nullptr) store->sync_dir();  // newly put chunks become durable
      return;
    }
  }
}

/// The voting half of the handoff, run on the restore thread once every
/// restoration check (including the end-to-end digest) passed. Returns
/// normally only with Committed journaled; every throw unwinds the
/// program before the tail runs — the destination must not execute what
/// it does not own.
void DestinationHost::commit_gate(std::uint64_t txn, std::uint64_t digest) {
  MessagePort& port = *current();
  net::Message msg;
  try {
    msg = port.recv();
  } catch (const NetError& e) {
    // Nothing was promised yet: losing the port before Prepare is a
    // plain safe abort, not an in-doubt state.
    throw MigrationError(std::string("handoff lost before Prepare: ") + e.what());
  }
  session_.on_frame(msg);  // Prepare (txn- and incarnation-checked) or a rejection
  const std::uint32_t inc = session_.incarnation();
  journal_.append({JournalRecordType::Prepared, txn, digest, inc, ""});
  TxnMetrics::get().prepares.add(1);
  // The vote echoes our incarnation: a source that already redirected the
  // stream rejects it as fenced instead of mistaking it for the standby's.
  port.send(net::MsgType::PrepareAck, net::encode_prepare_ack({txn, digest, inc}));
  net::Message verdict;
  try {
    verdict = port.recv();
  } catch (const NetError& e) {
    resolve_in_doubt(txn, digest, e.what());
    return;
  }
  // Commit transitions the machine to Committed; Abort raises the typed
  // "source aborted the handoff after Prepare".
  session_.on_frame(verdict);
  record_committed(txn, digest, "");
}

/// We voted yes and the verdict vanished: only the journals can say who
/// owns the process. The source always makes its decision durable before
/// acting on it, so within the grace period a Commit or Abort record
/// appears — unless the source itself crashed pre-decision, which
/// resolves to presumed abort.
void DestinationHost::resolve_in_doubt(std::uint64_t txn, std::uint64_t digest,
                                       const char* why) {
  if (!journal_.durable()) {
    throw MigrationError(
        std::string("in-doubt handoff with no journal to consult (presumed abort): ") +
        why);
  }
  const auto grace =
      deadline_.count() > 0 ? 4 * deadline_ : std::chrono::milliseconds(2000);
  const auto deadline = Clock::now() + grace;
  for (;;) {
    switch (last_source_decision(source_journal_path_, txn, session_.incarnation())) {
      case SourceDecision::Commit:
        TxnMetrics::get().indoubt_recoveries.add(1);
        session_.commit_recovered();
        record_committed(txn, digest, "recovered: source journal shows Commit");
        return;
      case SourceDecision::Abort:
        throw MigrationError(
            "in-doubt handoff resolved against us: the source journal shows "
            "Abort or fenced this incarnation off");
      case SourceDecision::Undecided:
        break;
    }
    if (Clock::now() >= deadline) {
      throw MigrationError(
          "in-doubt handoff: no verdict recorded within the grace period "
          "(presumed abort)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void DestinationHost::record_committed(std::uint64_t txn, std::uint64_t digest,
                                       std::string note) {
  journal_.append({JournalRecordType::Committed, txn, digest, session_.incarnation(),
                   std::move(note)});
  TxnMetrics::get().dest_committed.add(1);
}

}  // namespace hpm::mig
