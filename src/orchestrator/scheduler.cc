#include "orchestrator/scheduler.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "core/json_reader.h"
#include "core/report.h"

namespace collie::orchestrator {
namespace {

// Min-heap entry for virtual-time scheduling: the worker that frees up
// earliest wins; ties go to the lowest worker id so the order is total.
struct WorkerClock {
  double t = 0.0;
  int worker = 0;
  bool operator>(const WorkerClock& o) const {
    if (t != o.t) return t > o.t;
    return worker > o.worker;
  }
};

using ClockHeap =
    std::priority_queue<WorkerClock, std::vector<WorkerClock>,
                        std::greater<WorkerClock>>;

}  // namespace

const char* to_string(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::kRoundRobin:
      return "rr";
    case SchedulePolicy::kLpt:
      return "lpt";
  }
  return "?";
}

std::vector<int> Schedule::worker_of(std::size_t n_cells) const {
  std::vector<int> out(n_cells, -1);
  for (std::size_t w = 0; w < queues.size(); ++w) {
    for (const std::size_t i : queues[w]) {
      if (i < n_cells) out[i] = static_cast<int>(w);
    }
  }
  return out;
}

Schedule round_robin_schedule(const std::vector<bool>& runnable, int workers) {
  Schedule s;
  s.workers = workers < 1 ? 1 : workers;
  s.queues.resize(static_cast<std::size_t>(s.workers));
  for (std::size_t i = 0; i < runnable.size(); ++i) {
    if (!runnable[i]) continue;
    s.queues[i % static_cast<std::size_t>(s.workers)].push_back(i);
  }
  return s;
}

Schedule lpt_schedule(const std::vector<double>& budget_seconds,
                      const std::vector<bool>& runnable, int workers) {
  Schedule s;
  s.workers = workers < 1 ? 1 : workers;
  s.queues.resize(static_cast<std::size_t>(s.workers));

  // Longest budget first; equal budgets keep plan order (stable sort), so
  // the schedule is a pure function of (budgets, workers).
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < runnable.size(); ++i) {
    if (runnable[i]) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return budget_seconds[a] > budget_seconds[b];
                   });

  ClockHeap heap;
  for (int w = 0; w < s.workers; ++w) heap.push(WorkerClock{0.0, w});
  for (const std::size_t i : order) {
    WorkerClock wc = heap.top();
    heap.pop();
    s.queues[static_cast<std::size_t>(wc.worker)].push_back(i);
    wc.t += budget_seconds[i];
    heap.push(wc);
  }
  return s;
}

std::vector<std::size_t> dispatch_order(
    const Schedule& schedule, const std::vector<double>& budget_seconds) {
  std::vector<std::size_t> out;
  std::vector<std::size_t> next(schedule.queues.size(), 0);
  ClockHeap heap;
  for (std::size_t w = 0; w < schedule.queues.size(); ++w) {
    if (!schedule.queues[w].empty()) {
      heap.push(WorkerClock{0.0, static_cast<int>(w)});
    }
  }
  while (!heap.empty()) {
    WorkerClock wc = heap.top();
    heap.pop();
    const auto w = static_cast<std::size_t>(wc.worker);
    const std::size_t cell = schedule.queues[w][next[w]++];
    out.push_back(cell);
    if (next[w] < schedule.queues[w].size()) {
      wc.t += cell < budget_seconds.size() ? budget_seconds[cell] : 0.0;
      heap.push(wc);
    }
  }
  return out;
}

std::string schedule_to_json(const Schedule& schedule,
                             const std::vector<std::string>& labels,
                             const std::vector<double>& budget_seconds) {
  core::JsonWriter json;
  json.begin_object();
  json.field("workers", schedule.workers);
  json.begin_array("queues");
  for (const std::vector<std::size_t>& queue : schedule.queues) {
    json.begin_array();
    for (const std::size_t i : queue) {
      json.begin_object();
      json.field("cell", static_cast<i64>(i));
      if (i < labels.size()) json.field("label", labels[i]);
      if (i < budget_seconds.size()) {
        json.field("budget_seconds", budget_seconds[i]);
      }
      json.end_object();
    }
    json.end_array();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

Schedule schedule_from_json(const std::string& text) {
  const core::JsonValue doc = core::JsonValue::parse(text);
  Schedule s;
  s.workers = doc.at("workers").as_int();
  if (s.workers < 1) throw core::JsonError("schedule needs >= 1 worker");
  for (const core::JsonValue& queue : doc.at("queues").items()) {
    s.queues.emplace_back();
    s.labels.emplace_back();
    s.budgets.emplace_back();
    for (const core::JsonValue& entry : queue.items()) {
      const i64 cell = entry.at("cell").as_i64();
      if (cell < 0) throw core::JsonError("negative cell index in schedule");
      s.queues.back().push_back(static_cast<std::size_t>(cell));
      s.labels.back().push_back(
          entry.has("label") ? entry.at("label").as_string() : std::string());
      s.budgets.back().push_back(entry.has("budget_seconds")
                                     ? entry.at("budget_seconds").as_double()
                                     : 0.0);
    }
  }
  if (s.queues.size() != static_cast<std::size_t>(s.workers)) {
    throw core::JsonError("schedule queue count disagrees with workers");
  }
  return s;
}

}  // namespace collie::orchestrator
