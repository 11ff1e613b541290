#include "fleet/fleet.h"

#include <exception>
#include <thread>
#include <utility>

namespace collie::fleet {

FleetRunResult run_loopback_fleet(orchestrator::CampaignConfig config,
                                  FleetRunOptions opts) {
  // The coordinator normalizes and plans the campaign once; every worker
  // runs cells under its normalized config, so both sides derive identical
  // cell RNG streams and engine options, and the fleet has one worker per
  // logical worker of its schedule.
  Coordinator coordinator(std::move(config), opts.coordinator);
  const orchestrator::CampaignConfig& normalized = coordinator.config();
  const int workers = coordinator.workers();

  LoopbackTransport transport(workers);
  for (const FaultRule& rule : opts.faults) transport.add_fault(rule);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    WorkerOptions wopts;
    wopts.heartbeat_interval = opts.coordinator.heartbeat_interval;
    if (w == opts.kill_worker) wopts.kill_at_cell = opts.kill_at_cell;
    if (w == opts.slow_worker) wopts.slow_probe_us = opts.slow_probe_us;
    threads.emplace_back([w, &normalized, &transport, wopts] {
      FleetWorker worker(w, normalized, &transport, wopts);
      worker.run();
    });
  }

  FleetRunResult out;
  std::exception_ptr failure;
  try {
    out.campaign = coordinator.run(&transport);
  } catch (...) {
    failure = std::current_exception();
  }
  // Closing every endpoint unblocks any worker still in recv (a killed
  // worker's replacement, a zombie that missed the shutdown lease) so the
  // joins below cannot hang.
  for (int w = 0; w < workers; ++w) transport.close(w);
  transport.close(kCoordinatorId);
  for (std::thread& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);

  out.stats = coordinator.stats();
  out.delivered = transport.delivered();
  out.dropped = transport.dropped();
  out.duplicated = transport.duplicated();
  out.delayed = transport.delayed();
  return out;
}

}  // namespace collie::fleet
