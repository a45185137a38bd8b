// The Coordinator facade: composes the extracted migration layer —
// SourceSession/DestSession state machines (session.hpp), the
// transactional handoff (source_txn.hpp / dest_host.hpp), ports and wiring
// (port.hpp), the File spool (spool_transfer.hpp), and the intent
// journals — behind run_migration() and the session entry run_session()
// (fleet.hpp). The policy that lives HERE is only the composition: which
// transport takes which path, how a session is wired, how the txn is
// derived, and graceful degradation.
#include "mig/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>

#include "mig/endpoint_util.hpp"
#include "mig/fleet.hpp"
#include "mig/mig_metrics.hpp"
#include "mig/source_txn.hpp"
#include "mig/spool_transfer.hpp"
#include "obs/span.hpp"

namespace hpm::mig {

SessionWiring exclusive_wiring(const RunOptions& options, std::uint32_t session_id) {
  const std::chrono::milliseconds deadline = io_deadline(options);
  auto fault_state = std::make_shared<net::FaultState>();
  auto dest_fault_state = std::make_shared<net::FaultState>();
  // One dial: a brand-new channel pair whose source end carries the run's
  // fault plan and deadline and whose destination end carries `dest_plan`
  // under its own firing state. The destination's first recv spans the
  // program's whole pre-trigger phase, so its per-IO deadline is armed
  // only once the transfer begins (DestinationHost sets it after the
  // first frame).
  auto dial = [&options, fault_state, deadline](
                  const net::FaultPlan& dest_plan,
                  const std::shared_ptr<net::FaultState>& dest_state) {
    net::ChannelPair channels = net::make_channel_pair(
        options.transport, {.spool_path = options.spool_path, .timeout = {}});
    std::shared_ptr<void> keep(std::move(channels.listener));
    PortPair pair;
    pair.source = std::make_unique<DirectPort>(
        wrap_source_channel(std::move(channels.source), options, fault_state, deadline),
        keep);
    pair.destination = std::make_unique<DirectPort>(
        wrap_dest_channel(std::move(channels.destination), dest_plan, dest_state), keep);
    return pair;
  };
  SessionWiring wiring;
  wiring.session_id = session_id;
  wiring.connect = [dial, &options, dest_fault_state] {
    return dial(options.dest_fault_plan, dest_fault_state);
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
    wiring.connect_standby = [dial, &options, standby_states](std::size_t k) {
      return dial(options.failover.standbys.at(k).dest_fault_plan, standby_states->at(k));
    };
  }
  return wiring;
}

namespace {

/// Local completion from the collected stream: the graceful-degradation
/// tail shared by the spool and the transaction.
void complete_locally(const RunOptions& options, MigrationReport& report,
                      Bytes stream) {
  report.outcome = MigrationOutcome::AbortedContinuedLocally;
  CoordinatorMetrics::get().aborts.add(1);
  ti::TypeTable types;
  options.register_types(types);
  MigContext ctx(types);
  ctx.begin_restore(std::move(stream));
  run_destination_program(options, ctx, report);
}

/// The transaction id of a run: wall-clock microseconds, raised past the
/// last id this process handed out, so concurrent sessions never collide
/// and successive runs journaling into one directory get increasing ids
/// (recover(dir) arbitrates the highest).
std::uint64_t derive_txn() {
  static std::atomic<std::uint64_t> last{0};
  const auto micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::uint64_t prev = last.load();
  std::uint64_t txn = 0;
  do {
    txn = std::max(micros, prev + 1);
  } while (!last.compare_exchange_weak(prev, txn));
  return txn;
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
    ctx.set_leaf_bytes(options.chunk_bytes);
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

  const std::chrono::milliseconds timeout = io_deadline(options);
  auto fault_state = std::make_shared<net::FaultState>();
  RetryBackoff backoff;
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

/// Run `body` as one observed migration: a `mig.run` span, and the
/// registry delta across it as the report's metrics.
template <typename Body>
MigrationReport observed_run(const RunOptions& options, std::uint32_t session, Body body) {
  // The report's metrics member is the registry delta across this run, so
  // concurrent runs in one process would bleed into each other's deltas —
  // per-session truth for concurrent sessions lives in the
  // mig.session.<id>.* instruments instead.
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  obs::Span run_span("mig.run");
  run_span.arg("transport", std::string(net::transport_name(options.transport)));
  run_span.arg("session", std::uint64_t{session});
  MigrationReport report = body();
  run_span.arg("outcome", std::string(outcome_name(report.outcome)));
  run_span.finish();
  report.metrics = obs::Registry::process().snapshot().delta_since(before);
  return report;
}

void require_program(const RunOptions& options, const char* entry) {
  if (!options.register_types || !options.program) {
    throw MigrationError(std::string(entry) + " requires register_types and program");
  }
  // The chunk size is the stream's leaf size, which its header carries.
  if (options.chunk_bytes == 0 || options.chunk_bytes > msrm::kMaxLeafBytes) {
    throw MigrationError(std::string(entry) + " requires chunk_bytes in [1, " +
                         std::to_string(msrm::kMaxLeafBytes) + "]");
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
  if (options.transport != Transport::File) {
    return run_session(options, exclusive_wiring(options, 0));
  }
  return observed_run(options, 0, [&] { return run_spool_migration(options); });
}

/// The one handoff on a duplex transport: the transaction of
/// source_txn.hpp over `wiring` under a fresh txn, degrading to local
/// completion once its attempts are spent.
MigrationReport run_session(const RunOptions& options, const SessionWiring& wiring) {
  require_program(options, "run_session");
  if (!wiring.connect) throw MigrationError("run_session requires wiring.connect");
  return observed_run(options, wiring.session_id, [&] {
    const std::uint64_t txn = derive_txn();
    MigrationReport report;
    Journal src_journal;
    if (!options.journal_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(options.journal_dir, ec);
      src_journal.open(options.journal_dir + "/" + keyed_source_journal_name(txn));
    }
    RetainedStream retained;
    switch (run_pipelined_transaction(options, report, retained, wiring, io_deadline(options),
                                      src_journal, txn)) {
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
        // journals (recover) arbitrate ownership.
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
        complete_locally(options, report, retained.take());
        break;
    }
    return report;
  });
}

}  // namespace hpm::mig
