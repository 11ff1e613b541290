// Ground-truth anomaly catalog: the 18 performance anomalies of Table 2 with
// the concrete trigger settings of Appendix A.
//
// Role in the reproduction: in the paper, anomaly identity is established
// post hoc by vendor confirmation.  Here the catalog plays that role — the
// evaluation harness labels detected anomalous workloads against these
// regions to count distinct anomalies (Figures 4-6).  The *search* never
// consults this module.
//
// Numbering follows Appendix A (the paper's Table 2 swaps rows 7/8 relative
// to its own appendix; we keep the appendix order, where #7 is the QP-count
// scalability anomaly and #8 the MR-count one).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/perf_model.h"
#include "sim/workload.h"

namespace collie::catalog {

enum class Symptom { kPauseFrames, kLowThroughput };

const char* to_string(Symptom s);

struct AnomalyInfo {
  int id = 0;
  bool is_new = true;       // green rows of Table 2
  bool fixed = false;       // "7 of them are already fixed"
  std::string chip;         // Table 2 RNIC column: "CX-6" / "P2100"
  char primary_subsystem = 'F';
  Symptom symptom = Symptom::kPauseFrames;

  // Table 2 columns, verbatim-ish, for the bench_table2 printer.
  std::string direction;
  std::string transport;
  std::string mtu;
  std::string wqe;
  std::string sge;
  std::string wq_depth;
  std::string message_pattern;
  std::string num_qps;

  // The simplified concrete trigger setting from Appendix A.
  Workload concrete;

  // Trigger-region predicate over workloads (the paper's "necessary
  // conditions"); used for ground-truth labeling during evaluation.
  std::function<bool(const Workload&)> region;

  std::string root_cause;  // Appendix A root-cause heading
};

const std::vector<AnomalyInfo>& all_anomalies();
const AnomalyInfo& anomaly(int id);

// The anomalies whose RNIC chip matches (e.g. all CX-6 rows for a CX-6
// subsystem).  Subsystem F exhibits 13 (rows 1-13), subsystem H five
// (rows 14-18), as in the paper.
std::vector<const AnomalyInfo*> anomalies_for_chip(const std::string& chip);

// Ground-truth labels for a detected anomalous workload: every catalog
// region (of the given chip) containing the workload with matching symptom.
std::vector<int> label(const std::string& chip, const Workload& w,
                       Symptom observed);

// Mechanism-based ground-truth label: maps the simulator's dominant
// bottleneck (plus distinguishing workload features) to the Table-2 row it
// realizes.  This plays the role of the paper's post-hoc vendor
// confirmation; it is sharper than the region predicates because the
// simulator's true trigger regions extend beyond the paper's "≈" bounds.
// Returns 0 when the mechanism maps to no catalogued anomaly.
//
// The scenario-aware overload also labels fabric-level mechanisms, which
// depend on the fabric the discovery ran under rather than on the RNIC:
// a kFabricCongestion-dominant anomaly labels 101 on "hetero" (port-rate
// mismatch congests the slow side) and 102 on "fanin4" (ToR fan-in
// oversubscription).  These ids live above the Table-2 range (1-18) and
// deliberately have no catalog row — the catalog is the paper's NIC
// anomaly table, while 10x ids attribute reproductions of switch-fabric
// mechanisms the scenario sweep adds.
int label_by_mechanism(const std::string& chip, const std::string& fabric,
                       const Workload& w, sim::Bottleneck dominant,
                       Symptom observed);

// Ground-truth id of one detected anomaly (0 when it maps to no catalogued
// one): the mechanism label first — the analogue of vendor confirmation —
// then the first region label of its witness.  Every consumer that counts
// distinct anomalies (figure benches, search_probe, the knowledge base)
// labels through this one function.
int identify(const std::string& chip, const std::string& fabric,
             const Workload& witness, sim::Bottleneck dominant,
             Symptom observed);

}  // namespace collie::catalog
