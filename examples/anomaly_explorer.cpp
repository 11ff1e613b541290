// Anomaly explorer: reproduce any Table-2 anomaly on any subsystem and
// inspect its epoch-by-epoch behaviour.
//
//   $ ./anomaly_explorer --list
//   $ ./anomaly_explorer --anomaly 4 [--sys F] [--seed 7]
#include <cstdio>

#include "catalog/anomalies.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/monitor.h"
#include "workload/engine.h"

using namespace collie;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);

  if (args.get_bool("list", false) || !args.has("anomaly")) {
    std::printf("Known anomalies (use --anomaly N to reproduce one):\n\n");
    TextTable t({"#", "new", "chip", "sys", "symptom", "trigger"});
    for (const auto& a : catalog::all_anomalies()) {
      t.add_row({std::to_string(a.id), a.is_new ? "yes" : "no", a.chip,
                 std::string(1, a.primary_subsystem),
                 to_string(a.symptom), a.concrete.describe()});
    }
    std::printf("%s", t.render().c_str());
    return 0;
  }

  const int id = static_cast<int>(args.get_int("anomaly", 1));
  if (id < 1 || id > 18) {
    std::fprintf(stderr, "anomaly id must be 1..18\n");
    return 1;
  }
  const catalog::AnomalyInfo& a = catalog::anomaly(id);
  const char sys_id = args.get("sys", std::string(1, a.primary_subsystem))[0];
  const u64 seed = static_cast<u64>(args.get_int("seed", 7));

  const sim::Subsystem& sys = sim::subsystem(sys_id);
  std::printf("Anomaly #%d on subsystem %c (%s)\n", id, sys_id,
              sys.nicm.name.c_str());
  std::printf("paper symptom : %s\n", to_string(a.symptom));
  std::printf("root cause    : %s\n", a.root_cause.c_str());
  std::printf("workload      : %s\n\n", a.concrete.describe().c_str());

  workload::EngineOptions eopts;
  eopts.sim.keep_epochs = true;  // the epoch table below
  workload::Engine engine(sys, eopts);
  Rng rng(seed);
  const auto m = engine.run(a.concrete, rng);
  const core::AnomalyMonitor monitor;
  const auto v = monitor.judge(m);

  TextTable t({"epoch", "t(s)", "tx goodput", "rx wqe miss/s",
               "pcie backpressure", "rx buffer", "pause"});
  for (std::size_t e = 0; e < m.epochs.size(); ++e) {
    const auto& ep = m.epochs[e];
    t.add_row({std::to_string(e), fmt_double(ep.t, 2),
               format_gbps(ep.counters.get(sim::PerfCounter::kTxGoodputBps)),
               fmt_double(
                   ep.counters.get(sim::DiagCounter::kRxWqeCacheMiss), 0),
               fmt_double(ep.counters.get(
                              sim::DiagCounter::kPcieInternalBackpressure),
                          0),
               format_bytes(static_cast<u64>(ep.counters.get(
                   sim::DiagCounter::kRxBufferOccupancy))),
               fmt_percent(ep.pause_fraction, 1)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "verdict: %s (pause ratio %.2f%%, wire util %.1f%%, pps util "
      "%.1f%%)\n",
      to_string(v.symptom), 100.0 * m.pause_duration_ratio,
      100.0 * m.wire_utilization, 100.0 * m.pps_utilization);
  std::printf("ground-truth bottleneck: %s (%s)\n", to_string(m.dominant),
              m.bottleneck_note.c_str());
  return 0;
}
