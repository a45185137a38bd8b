// The Coordinator facade: composes the extracted migration layer —
// SourceSession/DestSession state machines (session.hpp), the serial
// transfer (serial_transfer.hpp), the transactional pipelined transfer
// (source_txn.hpp / dest_host.hpp), ports and wiring (port.hpp), and the
// intent journals — behind the original run_migration() API. The policy
// that lives HERE is only the composition: which path runs, the serial
// retry loop, graceful degradation, and crash recovery.
#include "mig/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include "mig/endpoint_util.hpp"
#include "mig/mig_metrics.hpp"
#include "mig/port.hpp"
#include "mig/serial_transfer.hpp"
#include "mig/source_txn.hpp"
#include "obs/span.hpp"

namespace hpm::mig {

namespace {

using Clock = std::chrono::steady_clock;

/// Wiring for a classic exclusive-channel session: every connect() builds
/// a brand-new physical channel pair, applies the run's fault/throttle
/// wrappers, and hands back DirectPorts. A socket listener rides along as
/// the ports' keepalive so its fd outlives the conversation.
SessionWiring direct_wiring(const RunOptions& options,
                            std::shared_ptr<net::FaultState> fault_state,
                            std::shared_ptr<net::FaultState> dest_fault_state,
                            std::shared_ptr<const net::DeadlinePolicy> deadline) {
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

/// Local completion from the retained stream: the graceful-degradation
/// tail shared by the exclusive and routed paths.
void complete_locally(const RunOptions& options, MigrationReport& report,
                      Bytes stream) {
  report.outcome = MigrationOutcome::AbortedContinuedLocally;
  CoordinatorMetrics::get().aborts.add(1);
  ti::TypeTable types;
  options.register_types(types);
  MigContext ctx(types, options.search);
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

MigrationReport run_migration_impl(const RunOptions& options) {
  if (!options.register_types || !options.program) {
    throw MigrationError("run_migration requires register_types and program");
  }
  // Remove a stale spool from an earlier run, and ours when we leave.
  SpoolCleanup spool_cleanup{options};
  if (options.transport == Transport::File) remove_spool(options.spool_path);

  MigrationReport report;

  const bool faults_armed =
      options.fault_plan.enabled() || options.dest_fault_plan.enabled();
  const double io_s = options.io_timeout_seconds > 0
                          ? options.io_timeout_seconds
                          : (faults_armed ? kFaultInjectionDefaultTimeout : 0);
  const auto timeout =
      std::chrono::milliseconds(static_cast<long long>(std::llround(io_s * 1000.0)));
  const std::shared_ptr<net::DeadlinePolicy> deadline =
      options.deadline_policy != nullptr ? options.deadline_policy
                                         : net::DeadlinePolicy::fixed(timeout);
  auto fault_state = std::make_shared<net::FaultState>();
  auto dest_fault_state = std::make_shared<net::FaultState>();

  Bytes stream;
  RetainedStream retained;
  bool collected = false;
  int first_serial_attempt = 1;
  const int total_attempts = 1 + std::max(0, options.max_retries);

  // Transaction identity + journals, shared by the pipelined transaction
  // and any serial fallback it degrades into.
  Journal src_journal;
  Journal dst_journal;
  std::uint64_t txn = 0;
  bool txn_ran = false;

  if (options.pipeline && options.transport != Transport::File) {
    // --- pipelined path: one resumable transaction; collect/tx/restore
    // overlapped, further attempts resume from the acked watermark.
    if (!options.journal_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(options.journal_dir, ec);
      src_journal.open(options.journal_dir + "/" + kSourceJournalName);
      dst_journal.open(options.journal_dir + "/" + kDestJournalName);
    }
    txn = options.txn_id != 0 ? options.txn_id : wall_clock_txn();
    txn_ran = true;
    int attempts_used = 0;
    const SessionWiring wiring =
        direct_wiring(options, fault_state, dest_fault_state, deadline);
    // A failover standby journals into its own incarnation-suffixed file
    // beside dest.journal, so recover() can scan every destination the
    // transaction ever touched.
    std::function<std::string(std::uint32_t)> standby_journal;
    if (!options.journal_dir.empty()) {
      standby_journal = [dir = options.journal_dir](std::uint32_t inc) {
        return dir + "/" + dest_journal_name(inc);
      };
    }
    switch (run_pipelined_transaction(options, report, retained, wiring, *deadline,
                                      src_journal, dst_journal, standby_journal, txn,
                                      total_attempts, attempts_used)) {
      case TxnResult::CompletedLocally:
        // Rendezvous happened but no transfer was ever started; the
        // attempt counter follows the serial path's convention.
        report.attempts = 0;
        report.outcome = MigrationOutcome::CompletedLocally;
        return report;
      case TxnResult::Migrated:
        report.outcome = MigrationOutcome::Migrated;
        return report;
      case TxnResult::CommittedUnconfirmed:
        // The Commit record is durable: the destination owns the process
        // whether or not its confirmation survived. No local fallback.
        report.outcome = MigrationOutcome::CommittedUnconfirmed;
        return report;
      case TxnResult::SourceCrashed:
        // The "crashed" source does nothing further — by definition. The
        // journals (Coordinator::recover) arbitrate ownership.
        report.outcome = MigrationOutcome::SourceCrashed;
        return report;
      case TxnResult::Failed:
        collected = true;
        first_serial_attempt = attempts_used + 1;  // retained stream replays serially
        // The serial path restores from a contiguous buffer; pull the
        // retained stream back out of its (possibly disk-spilled) home.
        stream = retained.materialize();
        retained.release();
        break;
    }
  } else {
    // --- phase 1, source host: run the program until it completes or the
    // migration trigger fires and the state is collected. No channel exists
    // yet — the destination is brought up per transfer attempt, so a dead
    // or damaged link can never take the running workload down with it.
    ti::TypeTable types;
    options.register_types(types);
    MigContext ctx(types, options.search);
    ctx.set_migrate_at_poll(options.migrate_at_poll);
    ctx.set_collect_threads(options.collect_threads);
    // The paper's scheduler sends the migration request asynchronously;
    // model it with a timer thread that pokes the context's request flag.
    std::atomic<bool> program_done{false};
    std::thread scheduler;
    if (options.request_after_seconds > 0) {
      scheduler = std::thread([&ctx, &program_done, delay = options.request_after_seconds] {
        const auto fire_at = Clock::now() + std::chrono::duration<double>(delay);
        while (!program_done.load(std::memory_order_relaxed) && Clock::now() < fire_at) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (!program_done.load(std::memory_order_relaxed)) ctx.request_migration();
      });
    }
    auto join_scheduler = [&] {
      program_done.store(true, std::memory_order_relaxed);
      if (scheduler.joinable()) scheduler.join();
    };
    try {
      try {
        options.program(ctx);
      } catch (...) {
        join_scheduler();  // never leave the timer thread joinable
        throw;
      }
      join_scheduler();
      // Ran to completion without migrating.
    } catch (const MigrationExit&) {
      join_scheduler();
      collected = true;
      stream = ctx.stream();  // buffered for replay across attempts
      report.stream_digest = ctx.stream_digest();
      report.stream_bytes = stream.size();
      report.collect_seconds = ctx.metrics().collect_seconds;
      report.source_arch = ctx.space().arch().name;
    }
    report.source_polls = ctx.poll_count();
    // ctx is discarded here: the migrating process has "terminated", and
    // only the collected stream survives.
  }
  if (!collected) {
    report.outcome = MigrationOutcome::CompletedLocally;
    return report;
  }

  // --- phase 2: serial transfer attempts with capped exponential backoff.
  double backoff = options.retry_backoff_seconds;
  for (int attempt = first_serial_attempt; attempt <= total_attempts; ++attempt) {
    if (attempt > 1 && backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2, options.retry_backoff_cap_seconds);
    }
    CoordinatorMetrics::get().attempts.add(1);
    if (attempt > 1) CoordinatorMetrics::get().retries.add(1);
    report.attempts = attempt;
    std::string cause;
    bool transferred = false;
    try {
      transferred = attempt_transfer(options, stream, report, fault_state,
                                     dest_fault_state, timeout, cause);
    } catch (const Error& e) {
      // Channel setup failed (connection refused, spool unwritable):
      // just as retryable as a failure mid-transfer.
      cause = e.what();
    }
    if (transferred) {
      if (txn_ran) {
        // The transaction's pipelined leg failed but its serial fallback
        // carried the same state across: close the transaction so
        // recovery reads "destination owns, completed". The pipelined
        // leg's collection already digested this very stream.
        const std::uint64_t d = report.stream_digest;
        src_journal.append({JournalRecordType::Commit, txn, d, 1, "serial fallback"});
        src_journal.append({JournalRecordType::Done, txn, d, 1, "serial fallback"});
        TxnMetrics::get().commits.add(1);
      }
      report.migrated = true;
      report.outcome = MigrationOutcome::Migrated;
      return report;
    }
    report.failure_causes.push_back("attempt " + std::to_string(attempt) + ": " + cause);
  }

  // --- graceful degradation: abandon migration (the pending request died
  // with the phase-1 context) and finish the computation locally by
  // restoring the buffered stream in-process — the source becomes its own
  // destination, so the final result is identical to a run that never
  // migrated.
  if (txn_ran) {
    // Durable before the local restore begins: a crash mid-degradation
    // must still arbitrate to the source.
    src_journal.append(
        {JournalRecordType::Abort, txn, 0, 1, "degraded to local completion"});
    TxnMetrics::get().aborts.add(1);
  }
  complete_locally(options, report, std::move(stream));
  return report;
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
  // The report's metrics member is the registry delta across this run, so
  // concurrent runs in one process would bleed into each other's deltas —
  // per-session truth for concurrent sessions lives in the
  // mig.session.<id>.* instruments instead.
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  obs::Span run_span("mig.run");
  run_span.arg("transport", std::string(net::transport_name(options.transport)));
  MigrationReport report = run_migration_impl(options);
  run_span.arg("outcome", std::string(outcome_name(report.outcome)));
  run_span.finish();
  report.metrics = obs::Registry::process().snapshot().delta_since(before);
  return report;
}

MigrationReport run_routed_migration(const RunOptions& options,
                                     const SessionWiring& wiring) {
  if (!options.register_types || !options.program) {
    throw MigrationError("run_routed_migration requires register_types and program");
  }
  if (!wiring.connect) {
    throw MigrationError("run_routed_migration requires wiring.connect");
  }

  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  obs::Span run_span("mig.session.run");
  run_span.arg("session", std::uint64_t{wiring.session_id});

  MigrationReport report;
  const bool faults_armed =
      options.fault_plan.enabled() || options.dest_fault_plan.enabled();
  const double io_s = options.io_timeout_seconds > 0
                          ? options.io_timeout_seconds
                          : (faults_armed ? kFaultInjectionDefaultTimeout : 0);
  const auto timeout =
      std::chrono::milliseconds(static_cast<long long>(std::llround(io_s * 1000.0)));
  const std::shared_ptr<net::DeadlinePolicy> deadline =
      options.deadline_policy != nullptr ? options.deadline_policy
                                         : net::DeadlinePolicy::fixed(timeout);

  // Concurrent sessions share one journal_dir, so both the journal files
  // and the derived txn are keyed per session: the wall clock alone could
  // collide across sessions started the same instant.
  const std::uint64_t txn =
      options.txn_id != 0
          ? options.txn_id
          : (wall_clock_txn() << 10) | (wiring.session_id & 0x3FFu);
  Journal src_journal;
  Journal dst_journal;
  if (!options.journal_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.journal_dir, ec);
    src_journal.open(options.journal_dir + "/" + keyed_source_journal_name(txn));
    dst_journal.open(options.journal_dir + "/" + keyed_dest_journal_name(txn));
  }

  RetainedStream retained;
  int attempts_used = 0;
  const int total_attempts = 1 + std::max(0, options.max_retries);
  std::function<std::string(std::uint32_t)> standby_journal;
  if (!options.journal_dir.empty()) {
    standby_journal = [dir = options.journal_dir, txn](std::uint32_t inc) {
      return dir + "/" + keyed_dest_journal_name(txn, inc);
    };
  }
  const TxnResult result = run_pipelined_transaction(
      options, report, retained, wiring, *deadline, src_journal, dst_journal,
      standby_journal, txn, total_attempts, attempts_used);
  switch (result) {
    case TxnResult::CompletedLocally:
      report.attempts = 0;
      report.outcome = MigrationOutcome::CompletedLocally;
      break;
    case TxnResult::Migrated:
      report.outcome = MigrationOutcome::Migrated;
      break;
    case TxnResult::CommittedUnconfirmed:
      report.outcome = MigrationOutcome::CommittedUnconfirmed;
      break;
    case TxnResult::SourceCrashed:
      report.outcome = MigrationOutcome::SourceCrashed;
      break;
    case TxnResult::Failed:
      // No serial fallback on a routed channel (untagged v3 frames cannot
      // share the multiplexed wire): degrade straight to local completion.
      src_journal.append(
          {JournalRecordType::Abort, txn, 0, 1, "degraded to local completion"});
      TxnMetrics::get().aborts.add(1);
      complete_locally(options, report, retained.materialize());
      break;
  }

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
