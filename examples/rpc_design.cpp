// §7.3 case 1 — anomaly *prevention* during application design.
//
// Our RDMA RPC library will use RC only (it needs one-sided READ/WRITE and
// reliable delivery) and deploys on subsystems B and C.  Before writing the
// library, the developers hand Collie a *restricted* search space that
// covers every workload the library could generate; Collie reports which
// anomalies live inside it and which design decisions avoid them.
//
//   $ ./rpc_design [--minutes 240] [--seed 1]
#include <cstdio>

#include "common/cli.h"
#include "core/search.h"
#include "sim/subsystem.h"

using namespace collie;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const double minutes = args.get_double("minutes", 240);
  const u64 seed = static_cast<u64>(args.get_int("seed", 1));

  // The library's possible workloads, from its design sketch:
  //   - RC transport only, any opcode;
  //   - at most 2K connections per NIC;
  //   - host DRAM only, no loopback scheduling.
  core::SpaceConfig rpc_space;
  rpc_space.qp_types = {QpType::kRC};
  rpc_space.max_qps = 2048;
  rpc_space.allow_gpu = false;
  rpc_space.allow_loopback = false;

  std::printf(
      "Searching the RPC library's restricted workload space on the\n"
      "deployment subsystems (budget %.0f simulated minutes each)...\n\n",
      minutes);

  for (char sys_id : {'B', 'C'}) {
    const sim::Subsystem& sys = sim::subsystem(sys_id);
    std::printf("=== subsystem %c: %s ===\n", sys_id,
                sys.nicm.name.c_str());
    workload::Engine engine(sys);
    core::SearchSpace space(sys, rpc_space);
    core::SearchDriver driver(engine, space);
    core::SaConfig cfg;
    cfg.mode = core::GuidanceMode::kDiag;
    core::SearchBudget budget;
    budget.seconds = minutes * 60.0;
    Rng rng(seed);
    const auto result = driver.run_simulated_annealing(cfg, budget, rng);

    if (result.found.empty()) {
      std::printf(
          "no anomaly found in the restricted space (%d experiments).\n"
          "If the design sketch covers all real workloads, the library\n"
          "will not hit a Collie-detectable anomaly on this subsystem.\n\n",
          result.experiments);
      continue;
    }
    std::printf("%zu anomaly region(s) inside the design space:\n",
                result.found.size());
    for (const auto& f : result.found) {
      std::printf("%s\n  witness: %s\n", f.mfs.describe(space).c_str(),
                  f.mfs.witness.describe().c_str());
    }
    std::printf(
        "\nDesign suggestions (break at least one condition per MFS):\n"
        "  - transmit bulk data with RDMA WRITE in batches instead of\n"
        "    READ with large WQE batch + long SG lists;\n"
        "  - size SEND/RECV receive queues for small control messages\n"
        "    carefully (deep receive queues trigger the WQE-cache MFS).\n\n");
  }
  return 0;
}
