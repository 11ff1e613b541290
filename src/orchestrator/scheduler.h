// Campaign cell scheduling: who runs what, in which order.
//
// A Schedule is the realized assignment of plan cells to *logical* workers:
// per-worker queues of plan indices in execution order.  Logical workers are
// decoupled from physical threads — any number of OS threads can execute a
// schedule (thread t drains queues t, t+T, ...), and because every cell's
// RNG stream is split off the campaign seed by cell index, the results are
// a function of the schedule alone, not of the thread count.  That is what
// makes journal `--resume` and `--replay` bit-for-bit: the journal's begin
// record carries the schedule, re-executed at any worker count.
//
// Two policies build schedules:
//   * round-robin — cell i -> worker i mod W, the seed behaviour; exact for
//     equal budgets and kept as the default so existing campaigns replay
//     unchanged;
//   * LPT (longest processing time first) — mixed-budget campaigns sorted
//     by budget descending, each cell assigned to the worker whose queue is
//     shortest in virtual time.  Equivalent to greedy work stealing in
//     simulated time: an idle worker pulls the heaviest pending cell, and
//     makespan stays within 4/3 of optimal instead of degrading to the
//     worst per-worker sum round-robin can produce.
//
// Schedules serialize to JSON (with cell labels for validation; the journal
// embeds the document) so a replay can detect grid drift: a schedule
// recorded against a different plan is rejected, never silently misapplied.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"

namespace collie::orchestrator {

enum class SchedulePolicy {
  kRoundRobin,  // cell i -> worker i mod W (seed behaviour, default)
  kLpt,         // longest-budget-first onto the least-loaded worker
};

const char* to_string(SchedulePolicy p);

struct Schedule {
  int workers = 0;
  // queues[w] = plan indices worker w executes, in order.
  std::vector<std::vector<std::size_t>> queues;
  // Parallel to queues: cell labels and budgets recorded at serialization
  // time, used to validate a replayed schedule against the current plan — a
  // recording taken under different --hours must be rejected, not silently
  // re-dispatched.  Empty for freshly computed schedules.
  std::vector<std::vector<std::string>> labels;
  std::vector<std::vector<double>> budgets;

  // worker_of[i] for every plan index covered by a queue; -1 for cells the
  // schedule does not run (warm-start-skipped cells).
  std::vector<int> worker_of(std::size_t n_cells) const;
};

// runnable[i] == false excludes plan cell i (already completed by a
// warm-started checkpoint).  Budgets are indexed by plan position.
Schedule round_robin_schedule(const std::vector<bool>& runnable, int workers);
Schedule lpt_schedule(const std::vector<double>& budget_seconds,
                      const std::vector<bool>& runnable, int workers);

// Global single-thread execution order: virtual-time dispatch over the
// queues using each cell's budget as its expected duration (ties broken by
// worker id).  For round-robin with uniform budgets this is exactly plan
// order, so deterministic execution keeps the seed's semantics.
std::vector<std::size_t> dispatch_order(
    const Schedule& schedule, const std::vector<double>& budget_seconds);

// JSON round trip.  `labels` / `budget_seconds` map plan index -> cell
// label / wall budget; both are recorded per entry for replay validation.
std::string schedule_to_json(const Schedule& schedule,
                             const std::vector<std::string>& labels,
                             const std::vector<double>& budget_seconds);
// Throws core::JsonError on truncated/garbled documents.
Schedule schedule_from_json(const std::string& text);

}  // namespace collie::orchestrator
