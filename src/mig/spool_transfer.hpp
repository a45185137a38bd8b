// The spool transfer: Transport::File's simplex handoff.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "mig/coordinator.hpp"

namespace hpm::mig {

/// One spool attempt: write the buffered stream into a fresh spool as one
/// State frame while a destination reads it back and restores. A spool has
/// no reverse byte path, so there is no rendezvous, vote, or verdict frame:
/// the attempt succeeded when both ends did. Returns true on success; on a
/// recoverable failure returns false with `cause` set. Unrecoverable
/// source-side failures (anything outside the hpm::Error hierarchy)
/// propagate. Every duplex transport runs the transaction of
/// source_txn.hpp instead.
bool spool_transfer(const RunOptions& options, const Bytes& stream, MigrationReport& report,
                    const std::shared_ptr<net::FaultState>& fault_state,
                    std::chrono::milliseconds timeout, std::string& cause);

}  // namespace hpm::mig
