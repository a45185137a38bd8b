// Source endpoint of the transactional handoff.
#pragma once

#include <chrono>
#include <cstdint>

#include "mig/coordinator.hpp"
#include "mig/port.hpp"
#include "mig/retained_stream.hpp"

namespace hpm::mig {

/// Outcome of the transaction.
enum class TxnResult : std::uint8_t {
  CompletedLocally,      ///< program finished without migrating
  Migrated,              ///< committed and confirmed
  CommittedUnconfirmed,  ///< committed; the destination's confirmation was lost
  SourceCrashed,         ///< injected source crash; journals arbitrate ownership
  Failed,                ///< every attempt failed; the caller completes locally
};

/// The transactional handoff, the only one on a duplex transport: one
/// transaction, up to 1 + options.max_retries attempts. Attempt 1 dials
/// `wiring.connect()` and, with options.pipeline, streams chunks while the
/// collection DFS is still walking the graph; with pipeline off (or
/// dedup) it collects first and then sends the retained stream. A
/// destination that lost its link resumes from the chunk count its
/// ResumeHello announces; a dead or vetoing one is replaced by a fresh
/// primary incarnation from `wiring.connect()`, replayed from chunk 0,
/// that votes anew. Restoration is bracketed by the two-phase commit, so
/// the source journals Commit only after a real PrepareAck. The protocol's legality is enforced by a
/// SourceSession machine on this side and a DestSession machine inside
/// each DestinationHost; `wiring.session_id` names both.
///
/// Destination failover (DESIGN.md §16): when the primary is declared
/// dead past the resume budget and both options.failover and
/// wiring.connect_standby are armed, the transaction re-targets each
/// standby candidate in policy order under the next incarnation (fencing
/// token), each dialed up to 1 + options.max_retries times. Primary
/// retries use the budget left after that.
///
/// `deadline` bounds every blocking send/recv (0 = unbounded); the
/// commit-phase waits get 4x it (DESIGN.md §13).
/// Each destination incarnation journals to options.journal_dir under
/// keyed_dest_journal_name(txn, incarnation) (no journal_dir = journaling
/// off). On return `stream` holds the
/// retained canonical stream; the caller takes it for local completion.
TxnResult run_pipelined_transaction(
    const RunOptions& options, MigrationReport& report, RetainedStream& stream,
    const SessionWiring& wiring, std::chrono::milliseconds deadline, Journal& src_journal,
    std::uint64_t txn);

}  // namespace hpm::mig
