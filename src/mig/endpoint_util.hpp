// Small helpers shared by the migration layer's endpoint drivers
// (spool_transfer, source_txn, dest_host, coordinator).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "common/durable_file.hpp"
#include "mig/coordinator.hpp"
#include "net/faulty_channel.hpp"
#include "net/message.hpp"
#include "net/simnet.hpp"

namespace hpm::mig {

/// Deadline applied when fault injection is on but the caller set none:
/// an injected stall/truncation must never hang the run.
inline constexpr double kFaultInjectionDefaultTimeout = 5.0;

/// The per-IO deadline of a run: io_timeout_seconds, or
/// kFaultInjectionDefaultTimeout when faults are armed and no timeout was
/// given (0 = block without bound).
inline std::chrono::milliseconds io_deadline(const RunOptions& options) {
  const bool faults_armed =
      options.fault_plan.enabled() || options.dest_fault_plan.enabled();
  const double io_s = options.io_timeout_seconds > 0
                          ? options.io_timeout_seconds
                          : (faults_armed ? kFaultInjectionDefaultTimeout : 0);
  return std::chrono::milliseconds(static_cast<long long>(std::llround(io_s * 1000.0)));
}

/// First retry delay and its cap: the delay doubles per retry.
inline constexpr std::chrono::milliseconds kRetryBackoffFirst{10};
inline constexpr std::chrono::milliseconds kRetryBackoffCap{250};

/// The one retry delay: kRetryBackoffFirst before the first retry,
/// doubling per retry up to kRetryBackoffCap. Deterministic (no jitter)
/// so failure schedules are reproducible. Paces the spool attempts, the
/// transaction's resumes and primary retries, and each failover
/// candidate's dials.
class RetryBackoff {
 public:
  void wait() {
    std::this_thread::sleep_for(delay_);
    delay_ = std::min(delay_ * 2, kRetryBackoffCap);
  }

 private:
  std::chrono::milliseconds delay_ = kRetryBackoffFirst;
};

/// Run the program on the source host until it completes (false) or the
/// migration trigger fires and the state is collected into `ctx` (true).
/// The trigger is migrate_at_poll or an asynchronous
/// MigContext::request_migration(), honored at the next poll-point.
/// Anything else the program throws propagates.
inline bool run_source_program(const RunOptions& options, MigContext& ctx) {
  try {
    options.program(ctx);
  } catch (const MigrationExit&) {
    return true;
  }
  return false;
}

inline void remove_spool(const std::string& path) {
  durable::remove(path);
  durable::remove(path + ".done");
}

/// Deletes the spool (and its ".done" marker) when the run ends — orderly
/// or not — so no state leaks into the next Transport::File run.
struct SpoolCleanup {
  const RunOptions& options;
  ~SpoolCleanup() {
    if (options.transport == Transport::File) remove_spool(options.spool_path);
  }
};

inline Bytes hello_payload(const std::string& arch) {
  Bytes payload;
  payload.reserve(1 + arch.size());
  payload.push_back(net::kProtocolVersion);
  payload.insert(payload.end(), arch.begin(), arch.end());
  return payload;
}

inline std::string exception_text(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

/// Run the destination program to completion after begin_restore*(). A
/// MigrationExit here is a program's set_stop_after_restore unwind: restoration
/// completed and the metrics are recorded; skipping the tail is the point.
inline void run_destination_program(const RunOptions& options, MigContext& ctx,
                                    MigrationReport& report) {
  try {
    options.program(ctx);
  } catch (const MigrationExit&) {
  }
  report.restore_seconds = ctx.metrics().restore_seconds;
}

inline std::unique_ptr<net::ByteChannel> wrap_source_channel(
    std::unique_ptr<net::ByteChannel> ch, const RunOptions& options,
    const std::shared_ptr<net::FaultState>& fault_state,
    std::chrono::milliseconds timeout) {
  if (options.fault_plan.enabled()) {
    ch = std::make_unique<net::FaultyChannel>(std::move(ch), options.fault_plan,
                                              fault_state);
  }
  if (options.throttle) {
    ch = std::make_unique<net::ThrottledChannel>(std::move(ch), options.link);
  }
  if (timeout.count() > 0) ch->set_timeout(timeout);
  return ch;
}

inline std::unique_ptr<net::ByteChannel> wrap_dest_channel(
    std::unique_ptr<net::ByteChannel> ch, const net::FaultPlan& plan,
    const std::shared_ptr<net::FaultState>& fault_state) {
  if (plan.enabled()) {
    ch = std::make_unique<net::FaultyChannel>(std::move(ch), plan, fault_state);
  }
  return ch;
}

}  // namespace hpm::mig
