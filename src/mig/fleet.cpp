// migrate_many: N real migrations multiplexed over one shared channel.
//
// One FrameRouter per endpoint owns the shared duplex channel; each job's
// SessionWiring opens routed ports on both routers, so a connect() during
// resume bumps the session's epoch on BOTH ends before any new-epoch
// frame can be sent. The per-session protocol itself is exactly the
// exclusive-channel one (run_routed_migration).
#include "mig/fleet.hpp"

#include <atomic>
#include <exception>
#include <thread>

#include "mig/frame_router.hpp"
#include "net/factory.hpp"

namespace hpm::mig {

std::vector<SessionOutcome> migrate_many(const std::vector<SessionJob>& jobs,
                                         net::Transport transport) {
  if (transport == net::Transport::File) {
    throw MigrationError(
        "migrate_many needs a duplex transport (Memory or Socket); File has "
        "no rendezvous to multiplex");
  }
  std::vector<SessionOutcome> outcomes(jobs.size());
  if (jobs.empty()) return outcomes;

  net::ChannelPair channels = net::make_channel_pair(transport, {});
  std::shared_ptr<void> keep(std::move(channels.listener));
  const auto src_router =
      std::make_shared<FrameRouter>(std::move(channels.source), keep);
  const auto dst_router =
      std::make_shared<FrameRouter>(std::move(channels.destination), keep);

  std::vector<std::exception_ptr> errors(jobs.size());
  std::vector<std::thread> drivers;
  drivers.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    drivers.emplace_back([&, i] {
      const auto id = static_cast<std::uint32_t>(i + 1);
      outcomes[i].session_id = id;
      SessionWiring wiring;
      wiring.session_id = id;
      // Fault scripts target the first epoch only: the resumed binding
      // must be able to finish the transfer.
      auto first_epoch = std::make_shared<std::atomic<bool>>(true);
      const std::int64_t sever = jobs[i].sever_after_frames;
      const std::int64_t stall = jobs[i].stall_after_frames;
      wiring.connect = [src_router, dst_router, id, first_epoch, sever, stall] {
        PortPair pair;
        pair.source = src_router->open(id);
        pair.destination = dst_router->open(id);
        if (first_epoch->exchange(false)) {
          if (sever >= 0) {
            pair.source = std::make_unique<SeveringPort>(
                std::move(pair.source), static_cast<std::uint32_t>(sever));
          } else if (stall >= 0) {
            pair.source = std::make_unique<BlackholePort>(
                std::move(pair.source), static_cast<std::uint32_t>(stall));
          }
        }
        return pair;
      };
      if (jobs[i].options.failover.enabled()) {
        // Standby candidate k of session `id` dials under a derived
        // session id in a reserved high band, so its binding never shares
        // a router entry (or an epoch sequence) with the primary's.
        wiring.connect_standby = [src_router, dst_router, id](std::size_t k) {
          const std::uint32_t sid = (id & 0x00FFFFFFu) | 0x40000000u |
                                    (static_cast<std::uint32_t>(k + 1) << 24);
          PortPair pair;
          pair.source = src_router->open(sid);
          pair.destination = dst_router->open(sid);
          return pair;
        };
      }
      try {
        outcomes[i].report = run_routed_migration(jobs[i].options, wiring);
      } catch (...) {
        // The first driver failure propagates after every other session
        // has finished.
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : drivers) t.join();

  // All sessions are done: tear the shared wire down before rethrowing so
  // a failing session cannot leak the routers' pump threads.
  src_router->shutdown();
  dst_router->shutdown();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return outcomes;
}

}  // namespace hpm::mig
