#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace collie::fleet {

namespace {

// A killed executor's down time: it reads and drops whatever arrives (a
// dead process answers nothing) for `down`, or until its endpoint closes.
// Returns false on close.
bool stay_down(Transport* transport, int id, std::chrono::milliseconds down) {
  const auto until = std::chrono::steady_clock::now() + down;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        until - std::chrono::steady_clock::now());
    if (left.count() <= 0) return true;
    int from = 0;
    std::string payload;
    if (transport->recv(id, &from, &payload, left) == RecvStatus::kClosed) {
      return false;
    }
  }
}

}  // namespace

FleetRunResult run_loopback_fleet(orchestrator::CampaignConfig config,
                                  FleetRunOptions opts) {
  // Checked before the coordinator starts the campaign (and writes its
  // journal's begin record).
  const FleetOptions& timing = opts.coordinator;
  if (!opts.kill_at_cell.empty() &&
      4 * timing.heartbeat_timeout >= timing.stall_timeout) {
    throw std::invalid_argument(
        "a kill needs the heartbeat timeout (" +
        std::to_string(timing.heartbeat_timeout.count()) +
        " ms) below a quarter of the stall timeout (" +
        std::to_string(timing.stall_timeout.count()) + " ms)");
  }
  // The coordinator normalizes and plans the campaign once; every executor
  // runs cells under its normalized config, so both sides derive identical
  // cell RNG streams and engine options.
  Coordinator coordinator(std::move(config), opts.coordinator);
  const orchestrator::CampaignConfig& normalized = coordinator.config();
  // One executor per logical worker, but never more than there are cells
  // to run: a surplus executor would only heartbeat.
  const int executors = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(coordinator.workers()),
      coordinator.pending_cells()));

  LoopbackTransport transport(executors);
  for (const FaultRule& rule : opts.faults) transport.add_fault(rule);

  // Armed until the first executor dies on the kill cell: later leases of
  // that cell run normally.
  std::atomic<bool> kill_armed{!opts.kill_at_cell.empty()};
  WorkerOptions wopts;
  wopts.heartbeat_interval = opts.coordinator.heartbeat_interval;
  wopts.dies_on = [&](const orchestrator::CampaignCell& cell) {
    return cell.label() == opts.kill_at_cell && kill_armed.exchange(false);
  };
  // Over twice the heartbeat timeout, so even a briefly starved coordinator
  // sees the silence before the restarted executor's first heartbeat, and at
  // most half the stall timeout, so the re-run cell can finish before the
  // stall guard fires.
  const auto down =
      std::min(4 * timing.heartbeat_timeout, timing.stall_timeout / 2);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(executors));
  for (int e = 0; e < executors; ++e) {
    threads.emplace_back([e, &normalized, &transport, &wopts, down] {
      // A killed executor restarts on its endpoint after its down time.
      for (;;) {
        FleetWorker executor(e, normalized, &transport, wopts);
        if (!executor.run() || !stay_down(&transport, e, down)) return;
      }
    });
  }

  FleetRunResult out;
  std::exception_ptr failure;
  try {
    out.campaign = coordinator.run(&transport);
  } catch (...) {
    failure = std::current_exception();
  }
  // Closing every endpoint unblocks any executor still in recv (a zombie
  // that missed the shutdown lease, one staying down) so the joins below
  // cannot hang.
  for (int e = 0; e < executors; ++e) transport.close(e);
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
