// Anomaly explorer: reproduce any Table-2 anomaly on any subsystem and
// inspect the four counter fetches the monitor judges (§6).
//
//   $ ./anomaly_explorer --list
//   $ ./anomaly_explorer --anomaly 4 [--sys F] [--seed 7]
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "catalog/anomalies.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/monitor.h"
#include "sim/perf_model.h"
#include "sim/subsystem.h"
#include "workload/engine.h"

using namespace collie;

namespace {

constexpr CliFlag kFlags[] = {
    {"list", nullptr, nullptr, "print the anomaly catalog (the default)"},
    {"anomaly", "<id>", nullptr, "catalog id of the anomaly to reproduce"},
    {"sys", "<id>", nullptr,
     "subsystem letter (default: the anomaly's primary subsystem)"},
    {"seed", "<s>", "7", "rng seed of the measurement"},
    {"help", nullptr, nullptr, "print this reference and exit"},
};

void print_catalog() {
  std::printf("Known anomalies (use --anomaly N to reproduce one):\n\n");
  TextTable t({"#", "new", "chip", "sys", "symptom", "trigger"});
  for (const auto& a : catalog::all_anomalies()) {
    t.add_row({std::to_string(a.id), a.is_new ? "yes" : "no", a.chip,
               std::string(1, a.primary_subsystem), to_string(a.symptom),
               a.concrete.describe()});
  }
  std::printf("%s", t.render().c_str());
}

int run(const CliArgs& args) {
  if (!args.positional().empty()) {
    throw std::invalid_argument("unexpected argument '" +
                                args.positional().front() +
                                "' (use --anomaly <id>)");
  }
  args.reject_unknown();
  if (args.get_bool("list") || !args.has("anomaly")) {
    print_catalog();
    return 0;
  }

  const auto& catalog = catalog::all_anomalies();
  const auto [lo, hi] = std::minmax_element(
      catalog.begin(), catalog.end(),
      [](const auto& a, const auto& b) { return a.id < b.id; });
  const i64 id = args.get_int("anomaly");
  if (id < lo->id || id > hi->id) {
    throw std::invalid_argument("--anomaly must be " +
                                std::to_string(lo->id) + ".." +
                                std::to_string(hi->id));
  }
  const catalog::AnomalyInfo& a = catalog::anomaly(static_cast<int>(id));
  std::vector<std::string> letters;
  for (const char c : sim::all_subsystem_ids()) letters.emplace_back(1, c);
  const char sys_id = args.has("sys") ? args.get_choice("sys", letters)[0]
                                      : a.primary_subsystem;
  const u64 seed = static_cast<u64>(args.get_int("seed"));

  const sim::Subsystem& sys = sim::subsystem(sys_id);
  std::printf("Anomaly #%d on subsystem %c (%s)\n", a.id, sys_id,
              sys.nicm.name.c_str());
  std::printf("paper symptom : %s\n", to_string(a.symptom));
  std::printf("root cause    : %s\n", a.root_cause.c_str());
  std::printf("workload      : %s\n\n", a.concrete.describe().c_str());

  const workload::EngineOptions eopts;
  const workload::Engine engine(sys, eopts);
  Rng rng(seed);
  const auto m = engine.run(a.concrete, rng);
  const core::AnomalyMonitor monitor;
  const auto v = monitor.judge(m);

  // The rx buffer column is non-zero exactly in a sampled epoch whose
  // receiver paused (occupancy oscillates between XON and XOFF).
  const sim::SimConfig& cfg = eopts.sim;
  TextTable t({"sample", "epoch", "t(s)", "tx goodput", "rx wqe miss/s",
               "pcie backpressure", "rx buffer"});
  for (std::size_t k = 0; k < m.samples.size(); ++k) {
    const sim::CounterSample& s = m.samples[k];
    const int epoch = sim::sample_epoch(cfg, static_cast<int>(k));
    t.add_row({std::to_string(k), std::to_string(epoch),
               fmt_double((epoch + 1) * cfg.epoch_dt, 2),
               format_gbps(s.get(sim::PerfCounter::kTxGoodputBps)),
               fmt_double(s.get(sim::DiagCounter::kRxWqeCacheMiss), 0),
               fmt_double(s.get(sim::DiagCounter::kPcieInternalBackpressure),
                          0),
               format_bytes(static_cast<u64>(
                   s.get(sim::DiagCounter::kRxBufferOccupancy)))});
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

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, kFlags);
  if (args.has("help")) {
    std::fputs(cli_usage("usage: anomaly_explorer [flags]\n", kFlags).c_str(),
               stdout);
    return 0;
  }
  try {
    return run(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "anomaly_explorer: %s\n", e.what());
    return 2;
  }
}
