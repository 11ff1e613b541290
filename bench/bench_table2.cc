// Table 2: the 18 performance anomalies with their trigger conditions.
//
// Runs every concrete Appendix-A trigger setting on its primary subsystem
// and prints the paper's table columns plus the measured symptom, paper vs
// reproduced.  Anomalies marked (new) are the 15 found by Collie; the rest
// were known beforehand.
#include <cstdio>
#include <string>

#include "catalog/anomalies.h"
#include "common/rng.h"
#include "common/table.h"
#include "sim/perf_model.h"
#include "sim/subsystem.h"

using namespace collie;

// "#<id>", built by appending: GCC 12 raises a false-positive -Wrestrict on
// `"#" + std::to_string(id)` in optimized builds.
std::string anomaly_label(int id) {
  std::string label = "#";
  label += std::to_string(id);
  return label;
}

int main() {
  std::printf(
      "Table 2: Performance anomalies found on subsystems F and H\n"
      "(paper symptom vs symptom measured on the simulated subsystem)\n\n");
  TextTable t({"#", "new", "RNIC", "Direc.", "Transport", "MTU", "WQE",
               "SGE", "WQdep", "Message Pattern", "#QPs", "Paper",
               "Measured", "pause%", "wire%", "match"});
  int matches = 0;
  for (const auto& a : catalog::all_anomalies()) {
    const sim::Subsystem& sys = sim::subsystem(a.primary_subsystem);
    Rng rng(2024);
    const sim::SimResult r = sim::evaluate(sys, a.concrete, rng);
    const bool pause = r.pause_duration_ratio > 0.001;
    const bool low =
        r.wire_utilization < 0.8 && r.pps_utilization < 0.8;
    const char* measured =
        pause ? "pause frame" : (low ? "low throup." : "none");
    const bool match =
        (a.symptom == catalog::Symptom::kPauseFrames && pause) ||
        (a.symptom == catalog::Symptom::kLowThroughput && !pause && low);
    if (match) ++matches;
    t.add_row({anomaly_label(a.id), a.is_new ? "yes" : "no", a.chip,
               a.direction, a.transport, a.mtu, a.wqe, a.sge, a.wq_depth,
               a.message_pattern, a.num_qps, to_string(a.symptom), measured,
               fmt_percent(r.pause_duration_ratio, 1),
               fmt_percent(r.wire_utilization, 0),
               match ? "YES" : "NO"});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Reproduced %d / 18 anomaly symptoms.\n", matches);

  // Count summary lines matching the paper's headline numbers.
  int new_count = 0;
  int fixed = 0;
  for (const auto& a : catalog::all_anomalies()) {
    if (a.is_new) ++new_count;
    if (a.fixed) ++fixed;
  }
  std::printf(
      "Catalog: %d anomalies total, %d new (paper: 15 new), "
      "%d with vendor fixes (paper: 7).\n",
      static_cast<int>(catalog::all_anomalies().size()), new_count, fixed);

  // The Appendix-A necessary-condition spot checks: breaking one condition
  // of a trigger must clear the anomaly.
  std::printf("\nNecessary-condition spot checks (break one -> clean):\n");
  TextTable s({"anomaly", "broken condition", "pause%", "wire%", "clean"});
  struct Probe {
    int id;
    const char* what;
    Workload w;
  };
  std::vector<Probe> probes;
  {
    Workload w = catalog::anomaly(1).concrete;
    w.wqe_batch = 16;
    probes.push_back({1, "WQE batch 64 -> 16", w});
  }
  {
    Workload w = catalog::anomaly(3).concrete;
    w.mtu = 4096;
    probes.push_back({3, "MTU 1K -> 4K", w});
  }
  {
    Workload w = catalog::anomaly(9).concrete;
    w.bidirectional = false;
    probes.push_back({9, "bidirectional -> unidirectional", w});
  }
  {
    Workload w = catalog::anomaly(10).concrete;
    w.num_qps = 64;
    probes.push_back({10, "320 QPs -> 64", w});
  }
  {
    Workload w = catalog::anomaly(18).concrete;
    w.mtu = 4096;
    probes.push_back({18, "MTU 1K -> 4K", w});
  }
  bool all_clean = true;
  for (const auto& p : probes) {
    const auto& a = catalog::anomaly(p.id);
    Rng rng(7);
    const auto r = sim::evaluate(sim::subsystem(a.primary_subsystem), p.w,
                                 rng);
    const bool clean = r.pause_duration_ratio < 0.001 &&
                       (r.wire_utilization > 0.8 ||
                        r.pps_utilization > 0.8);
    all_clean = all_clean && clean;
    s.add_row({anomaly_label(p.id), p.what,
               fmt_percent(r.pause_duration_ratio, 2),
               fmt_percent(r.wire_utilization, 0), clean ? "YES" : "NO"});
  }
  std::printf("%s\n", s.render().c_str());
  return (matches == 18 && all_clean) ? 0 : 1;
}
