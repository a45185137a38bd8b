// Small helpers shared by the migration layer's endpoint drivers
// (spool_transfer, source_txn, dest_host, coordinator).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>

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

/// The one retry delay: retry_backoff_seconds before the first retry,
/// doubling per retry up to retry_backoff_cap_seconds. Deterministic (no
/// jitter) so failure schedules are reproducible. Paces the spool
/// attempts, the transaction's resumes and primary retries, and each
/// failover candidate's dials.
class RetryBackoff {
 public:
  explicit RetryBackoff(const RunOptions& options)
      : delay_(options.retry_backoff_seconds), cap_(options.retry_backoff_cap_seconds) {}

  void wait() {
    if (delay_ > 0) std::this_thread::sleep_for(std::chrono::duration<double>(delay_));
    delay_ = std::min(delay_ * 2, cap_);
  }

 private:
  double delay_;
  double cap_;
};

/// Run the program on the source host until it completes (false) or the
/// migration trigger fires and the state is collected into `ctx` (true).
/// The paper's scheduler sends the migration request asynchronously;
/// request_after_seconds models it with a timer thread that pokes the
/// context's request flag. Anything else the program throws propagates.
inline bool run_source_program(const RunOptions& options, MigContext& ctx) {
  std::atomic<bool> program_done{false};
  std::thread scheduler;
  if (options.request_after_seconds > 0) {
    scheduler = std::thread([&ctx, &program_done, delay = options.request_after_seconds] {
      const auto fire_at =
          std::chrono::steady_clock::now() + std::chrono::duration<double>(delay);
      while (!program_done.load(std::memory_order_relaxed) &&
             std::chrono::steady_clock::now() < fire_at) {
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
    options.program(ctx);
  } catch (const MigrationExit&) {
    join_scheduler();
    return true;
  } catch (...) {
    join_scheduler();  // never leave the timer thread joinable
    throw;
  }
  join_scheduler();
  return false;
}

inline void remove_spool(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".done").c_str());
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
/// MigrationExit here is the stop_after_restore unwind: restoration
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
    std::unique_ptr<net::ByteChannel> ch, const RunOptions& options,
    const std::shared_ptr<net::FaultState>& dest_fault_state) {
  if (options.dest_fault_plan.enabled()) {
    ch = std::make_unique<net::FaultyChannel>(std::move(ch), options.dest_fault_plan,
                                              dest_fault_state);
  }
  return ch;
}

}  // namespace hpm::mig
