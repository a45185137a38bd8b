// migrate_many: N real migrations, one driver thread and one set of
// exclusive channels each. The per-session protocol is exactly
// run_migration's (run_session over exclusive_wiring); the only
// additions are the session id and the scripted first-binding faults.
#include "mig/fleet.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <thread>

namespace hpm::mig {

std::vector<SessionOutcome> migrate_many(const std::vector<SessionJob>& jobs,
                                         net::Transport transport) {
  if (transport == net::Transport::File) {
    throw MigrationError(
        "migrate_many needs a duplex transport (Memory or Socket); File has "
        "no rendezvous");
  }
  std::vector<SessionOutcome> outcomes(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  std::vector<std::thread> drivers;
  drivers.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    drivers.emplace_back([&, i] {
      const auto id = static_cast<std::uint32_t>(i + 1);
      outcomes[i].session_id = id;
      RunOptions options = jobs[i].options;
      options.transport = transport;
      SessionWiring wiring = exclusive_wiring(options, id);
      const std::int64_t sever = jobs[i].sever_after_frames;
      const std::int64_t stall = jobs[i].stall_after_frames;
      if (sever >= 0 || stall >= 0) {
        // Fault scripts target the first binding only: the resumed one
        // must be able to finish the transfer.
        auto first = std::make_shared<std::atomic<bool>>(true);
        wiring.connect = [connect = std::move(wiring.connect), first, sever, stall] {
          PortPair pair = connect();
          if (first->exchange(false)) {
            if (sever >= 0) {
              pair.source = std::make_unique<SeveringPort>(
                  std::move(pair.source), static_cast<std::uint32_t>(sever));
            } else {
              pair.source = std::make_unique<BlackholePort>(
                  std::move(pair.source), static_cast<std::uint32_t>(stall));
            }
          }
          return pair;
        };
      }
      try {
        outcomes[i].report = run_session(options, wiring);
      } catch (...) {
        // The first driver failure propagates after every other session
        // has finished.
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return outcomes;
}

}  // namespace hpm::mig
