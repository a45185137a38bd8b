// The Coordinator facade: composes the extracted migration layer —
// SourceSession/DestSession state machines (session.hpp), the
// transactional handoff (source_txn.hpp / dest_host.hpp), ports and wiring
// (port.hpp), the File spool (spool_transfer.hpp), and the intent
// journals — behind the original run_migration() API. The policy that
// lives HERE is only the composition: which transport takes which path,
// how the journals are named and the txn derived, graceful degradation,
// and crash recovery.
#include "mig/coordinator.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "mig/endpoint_util.hpp"
#include "mig/mig_metrics.hpp"
#include "mig/port.hpp"
#include "mig/source_txn.hpp"
#include "mig/spool_transfer.hpp"
#include "obs/span.hpp"

namespace hpm::mig {

namespace {

/// Wiring for a classic exclusive-channel session: every connect() builds
/// a brand-new physical channel pair, applies the run's fault/throttle
/// wrappers, and hands back DirectPorts. A socket listener rides along as
/// the ports' keepalive so its fd outlives the conversation.
SessionWiring direct_wiring(const RunOptions& options,
                            std::shared_ptr<const net::DeadlinePolicy> deadline) {
  auto fault_state = std::make_shared<net::FaultState>();
  auto dest_fault_state = std::make_shared<net::FaultState>();
  SessionWiring wiring;
  wiring.session_id = 0;
  wiring.connect = [&options, fault_state, dest_fault_state, deadline] {
    // The destination's first recv spans the program's whole pre-trigger
    // phase, so the per-IO deadline is armed only once the transfer
    // begins (DestinationHost sets it after the first frame). The policy
    // is consulted per connect: an adaptive deadline warmed on attempt 1
    // bounds the resume attempts too.
    net::ChannelPair channels = net::make_channel_pair(
        options.transport, {.spool_path = options.spool_path, .timeout = {}});
    std::shared_ptr<void> keep(std::move(channels.listener));
    PortPair pair;
    pair.source = std::make_unique<DirectPort>(
        wrap_source_channel(std::move(channels.source), options, fault_state,
                            deadline->current()),
        keep);
    pair.destination = std::make_unique<DirectPort>(
        wrap_dest_channel(std::move(channels.destination), options, dest_fault_state),
        keep);
    return pair;
  };
  if (options.failover.enabled()) {
    // Each candidate gets its own fault state so a chaos script against
    // standby 1 cannot fire again at standby 2; the SOURCE-side plan
    // shares the primary's state on purpose — a one-shot source crash
    // that already fired must stay fired across the re-dial.
    auto standby_states =
        std::make_shared<std::vector<std::shared_ptr<net::FaultState>>>();
    for (std::size_t i = 0; i < options.failover.standbys.size(); ++i) {
      standby_states->push_back(std::make_shared<net::FaultState>());
    }
    wiring.connect_standby = [&options, fault_state, standby_states,
                              deadline](std::size_t k) {
      const DestinationCandidate& cand = options.failover.standbys.at(k);
      net::ChannelPair channels = net::make_channel_pair(
          options.transport, {.spool_path = options.spool_path, .timeout = {}});
      std::shared_ptr<void> keep(std::move(channels.listener));
      PortPair pair;
      pair.source = std::make_unique<DirectPort>(
          wrap_source_channel(std::move(channels.source), options, fault_state,
                              deadline->current()),
          keep);
      std::unique_ptr<net::ByteChannel> dch = std::move(channels.destination);
      if (cand.dest_fault_plan.enabled()) {
        dch = std::make_unique<net::FaultyChannel>(std::move(dch), cand.dest_fault_plan,
                                                   standby_states->at(k));
      }
      pair.destination = std::make_unique<DirectPort>(std::move(dch), keep);
      return pair;
    };
  }
  return wiring;
}

/// Local completion from the collected stream: the graceful-degradation
/// tail shared by the spool and the transaction.
void complete_locally(const RunOptions& options, MigrationReport& report,
                      Bytes stream) {
  report.outcome = MigrationOutcome::AbortedContinuedLocally;
  CoordinatorMetrics::get().aborts.add(1);
  ti::TypeTable types;
  options.register_types(types);
  MigContext ctx(types);
  ctx.set_stop_after_restore(options.stop_after_restore);
  ctx.begin_restore(std::move(stream));
  run_destination_program(options, ctx, report);
}

std::uint64_t wall_clock_txn() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Transport::File: the simplex spool path. The source runs the program
/// to its trigger and collects; then each attempt replays the collected
/// stream into a fresh spool, so a dead or damaged spool can never take
/// the running workload down with it. Past the retry budget the source
/// completes locally. Nothing is journaled: a spool carries no vote.
MigrationReport run_spool_migration(const RunOptions& options) {
  // Remove a stale spool from an earlier run, and ours when we leave.
  SpoolCleanup spool_cleanup{options};
  remove_spool(options.spool_path);

  MigrationReport report;
  Bytes stream;
  {
    ti::TypeTable types;
    options.register_types(types);
    MigContext ctx(types);
    ctx.set_migrate_at_poll(options.migrate_at_poll);
    ctx.set_collect_threads(options.collect_threads);
    const bool collected = run_source_program(options, ctx);
    report.source_polls = ctx.poll_count();
    if (!collected) return report;  // ran to completion without migrating
    stream = ctx.take_stream();  // buffered for replay across attempts
    report.stream_digest = ctx.stream_digest();
    report.stream_bytes = stream.size();
    report.collect_seconds = ctx.metrics().collect_seconds;
    report.source_arch = ctx.space().arch().name;
    // ctx is discarded here: the migrating process has "terminated", and
    // only the collected stream survives.
  }

  const std::chrono::milliseconds timeout = io_deadline(options)->current();
  auto fault_state = std::make_shared<net::FaultState>();
  RetryBackoff backoff(options);
  const int total_attempts = 1 + std::max(0, options.max_retries);
  for (int attempt = 1; attempt <= total_attempts; ++attempt) {
    if (attempt > 1) backoff.wait();
    CoordinatorMetrics::get().attempts.add(1);
    if (attempt > 1) CoordinatorMetrics::get().retries.add(1);
    report.attempts = attempt;
    std::string cause;
    try {
      if (spool_transfer(options, stream, report, fault_state, timeout, cause)) {
        report.migrated = true;
        report.outcome = MigrationOutcome::Migrated;
        return report;
      }
    } catch (const Error& e) {
      // Channel setup failed (spool unwritable): just as retryable as a
      // failure mid-transfer.
      cause = e.what();
    }
    report.failure_causes.push_back("attempt " + std::to_string(attempt) + ": " + cause);
  }
  complete_locally(options, report, std::move(stream));
  return report;
}

/// The one handoff on a duplex transport, exclusive or routed: the
/// transaction of source_txn.hpp over `wiring`, degrading to local
/// completion once its attempts are spent. The callers differ only in
/// the journal names — `source_journal` and `dest_journal(incarnation)`,
/// inside options.journal_dir — and the txn id.
MigrationReport run_transaction(
    const RunOptions& options, const SessionWiring& wiring,
    const std::shared_ptr<net::DeadlinePolicy>& deadline, std::uint64_t txn,
    const std::string& source_journal,
    const std::function<std::string(std::uint32_t)>& dest_journal) {
  MigrationReport report;
  Journal src_journal;
  std::function<std::string(std::uint32_t)> dest_journal_path;
  if (!options.journal_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.journal_dir, ec);
    src_journal.open(options.journal_dir + "/" + source_journal);
    dest_journal_path = [&options, &dest_journal](std::uint32_t inc) {
      return options.journal_dir + "/" + dest_journal(inc);
    };
  }
  RetainedStream retained;
  switch (run_pipelined_transaction(options, report, retained, wiring, *deadline,
                                    src_journal, dest_journal_path, txn)) {
    case TxnResult::CompletedLocally:
      // Rendezvous happened but no transfer was ever started.
      report.attempts = 0;
      report.outcome = MigrationOutcome::CompletedLocally;
      break;
    case TxnResult::Migrated:
      report.outcome = MigrationOutcome::Migrated;
      break;
    case TxnResult::CommittedUnconfirmed:
      // The Commit record is durable: the destination owns the process
      // whether or not its confirmation survived. No local fallback.
      report.outcome = MigrationOutcome::CommittedUnconfirmed;
      break;
    case TxnResult::SourceCrashed:
      // The "crashed" source does nothing further — by definition. The
      // journals (Coordinator::recover) arbitrate ownership.
      report.outcome = MigrationOutcome::SourceCrashed;
      break;
    case TxnResult::Failed:
      // Graceful degradation: abandon migration and finish the computation
      // locally by restoring the retained stream in-process — the source
      // becomes its own destination, so the final result is identical to
      // a run that never migrated. The Abort is durable before the local
      // restore begins: a crash mid-degradation must still arbitrate to
      // the source.
      src_journal.append(
          {JournalRecordType::Abort, txn, 0, 1, "degraded to local completion"});
      TxnMetrics::get().aborts.add(1);
      complete_locally(options, report, retained.materialize());
      break;
  }
  return report;
}

void require_program(const RunOptions& options, const char* entry) {
  if (!options.register_types || !options.program) {
    throw MigrationError(std::string(entry) + " requires register_types and program");
  }
}

}  // namespace

const char* outcome_name(MigrationOutcome outcome) noexcept {
  switch (outcome) {
    case MigrationOutcome::CompletedLocally: return "completed-locally";
    case MigrationOutcome::Migrated: return "migrated";
    case MigrationOutcome::AbortedContinuedLocally: return "aborted-continued-locally";
    case MigrationOutcome::SourceCrashed: return "source-crashed";
    case MigrationOutcome::CommittedUnconfirmed: return "committed-unconfirmed";
  }
  return "?";
}

MigrationReport run_migration(const RunOptions& options) {
  require_program(options, "run_migration");
  // The report's metrics member is the registry delta across this run, so
  // concurrent runs in one process would bleed into each other's deltas —
  // per-session truth for concurrent sessions lives in the
  // mig.session.<id>.* instruments instead.
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  obs::Span run_span("mig.run");
  run_span.arg("transport", std::string(net::transport_name(options.transport)));
  MigrationReport report;
  if (options.transport == Transport::File) {
    report = run_spool_migration(options);
  } else {
    const std::shared_ptr<net::DeadlinePolicy> deadline = io_deadline(options);
    report = run_transaction(options, direct_wiring(options, deadline), deadline,
                             options.txn_id != 0 ? options.txn_id : wall_clock_txn(),
                             kSourceJournalName, dest_journal_name);
  }
  run_span.arg("outcome", std::string(outcome_name(report.outcome)));
  run_span.finish();
  report.metrics = obs::Registry::process().snapshot().delta_since(before);
  return report;
}

MigrationReport run_routed_migration(const RunOptions& options,
                                     const SessionWiring& wiring) {
  require_program(options, "run_routed_migration");
  if (!wiring.connect) {
    throw MigrationError("run_routed_migration requires wiring.connect");
  }

  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  obs::Span run_span("mig.session.run");
  run_span.arg("session", std::uint64_t{wiring.session_id});
  // Concurrent sessions share one journal_dir, so both the journal files
  // and the derived txn are keyed per session: the wall clock alone could
  // collide across sessions started the same instant.
  const std::uint64_t txn =
      options.txn_id != 0
          ? options.txn_id
          : (wall_clock_txn() << 10) | (wiring.session_id & 0x3FFu);
  MigrationReport report = run_transaction(
      options, wiring, io_deadline(options), txn, keyed_source_journal_name(txn),
      [txn](std::uint32_t inc) { return keyed_dest_journal_name(txn, inc); });
  run_span.arg("outcome", std::string(outcome_name(report.outcome)));
  run_span.finish();
  report.metrics = obs::Registry::process().snapshot().delta_since(before);
  return report;
}

RecoveryVerdict Coordinator::recover(const std::string& journal_dir) {
  // Arbitrate against EVERY destination journal the run left behind — the
  // primary's dest.journal plus any failover incarnation's suffixed file.
  std::vector<std::string> dests = dest_journal_paths(journal_dir, 0);
  if (dests.empty()) dests.push_back(journal_dir + "/" + kDestJournalName);
  return recover_from_journals(journal_dir + "/" + kSourceJournalName, dests);
}

RecoveryVerdict Coordinator::recover(const std::string& journal_dir,
                                     std::uint64_t txn_id) {
  std::vector<std::string> dests = dest_journal_paths(journal_dir, txn_id);
  if (dests.empty()) {
    dests.push_back(journal_dir + "/" + keyed_dest_journal_name(txn_id));
  }
  return recover_from_journals(journal_dir + "/" + keyed_source_journal_name(txn_id),
                               dests);
}

}  // namespace hpm::mig
