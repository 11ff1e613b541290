#include "orchestrator/campaign_report.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>

#include "common/table.h"
#include "core/report.h"
#include "core/serialize.h"

namespace collie::orchestrator {
namespace {

struct Discovery {
  const CellResult* cell;
  const core::FoundAnomaly* found;
  double campaign_t;
};

}  // namespace

CampaignReport build_report(const CampaignResult& result) {
  CampaignReport report;
  report.pool = result.pool;
  report.backend = result.backend;
  report.workers = result.workers;
  report.serial_seconds = result.serial_seconds;
  report.makespan_seconds = result.makespan_seconds;
  report.speedup = result.speedup();

  // Collect discoveries per (subsystem, fabric, cc scenario), ordered by
  // campaign timeline so the dedup representative is the campaign's true
  // first finder.  Scenarios are distinct search spaces: their MFS regions
  // never dedup against each other.  Failed cells contribute no
  // discoveries and no experiments — only a failure tally.
  using GroupKey = std::tuple<char, std::string, std::string>;
  std::map<GroupKey, std::vector<Discovery>> by_group;
  std::vector<GroupKey> group_order;
  for (const CellResult& cr : result.cells) {
    const GroupKey key{cr.cell.subsystem, cr.cell.fabric, cr.cell.cc};
    if (by_group.find(key) == by_group.end()) group_order.push_back(key);
    auto& list = by_group[key];
    if (cr.failed() || cr.skipped) continue;
    for (const core::FoundAnomaly& f : cr.result.found) {
      list.push_back(
          Discovery{&cr, &f, cr.start_seconds + f.found_at_seconds});
    }
    report.total_experiments += cr.result.experiments;
  }

  for (const GroupKey& key : group_order) {
    const auto& [sys, fabric, cc] = key;
    auto& discoveries = by_group[key];
    std::stable_sort(discoveries.begin(), discoveries.end(),
                     [](const Discovery& a, const Discovery& b) {
                       return a.campaign_t < b.campaign_t;
                     });

    std::vector<std::size_t> rep_indices;  // into report.anomalies
    if (!discoveries.empty()) {
      // Built lazily — a group whose every cell failed (e.g. an unknown
      // subsystem id) cannot materialize a search space at all — and via
      // the same recipe the cells ran under, so dedup judges regions in
      // exactly the space that was searched.
      CampaignCell group_cell;
      group_cell.subsystem = sys;
      group_cell.fabric = fabric;
      group_cell.cc = cc;
      const core::SearchSpace space(group_cell.materialize());
      for (const Discovery& d : discoveries) {
        bool merged = false;
        for (const std::size_t ri : rep_indices) {
          DedupedAnomaly& rep = report.anomalies[ri];
          if (core::same_anomaly_region(space, rep.representative,
                                        d.found->mfs)) {
            rep.occurrences += 1;
            merged = true;
            break;
          }
        }
        if (merged) continue;
        DedupedAnomaly rep;
        rep.subsystem = sys;
        rep.fabric = fabric;
        rep.cc = cc;
        rep.symptom = d.found->mfs.symptom;
        rep.representative = d.found->mfs;
        rep.dominant = d.found->dominant;
        rep.occurrences = 1;
        rep.first_cell = d.cell->cell.label();
        rep.first_found_at = d.campaign_t;
        rep_indices.push_back(report.anomalies.size());
        report.anomalies.push_back(std::move(rep));
      }
    }

    SubsystemCoverage cov;
    cov.subsystem = sys;
    cov.fabric = fabric;
    cov.cc = cc;
    cov.distinct_anomalies = static_cast<int>(rep_indices.size());
    for (const CellResult& cr : result.cells) {
      if (cr.cell.subsystem != sys || cr.cell.fabric != fabric ||
          cr.cell.cc != cc) {
        continue;
      }
      if (cr.skipped) {
        // Completed by the warm-start checkpoint: this campaign searched
        // nothing here, so the cell must not inflate `cells` (covered).
        cov.skipped_cells += 1;
        continue;
      }
      if (cr.failed()) {
        cov.failed_cells += 1;
        continue;
      }
      cov.cells += 1;
      cov.experiments += cr.result.experiments;
      cov.anomalies_found += static_cast<int>(cr.result.found.size());
      cov.mfs_skips += cr.result.mfs_skips;
      cov.cross_worker_skips += cr.cross_worker_skips;
      cov.warm_start_skips += cr.warm_start_skips;
      cov.elapsed_seconds += cr.result.elapsed_seconds;
    }
    report.coverage.push_back(cov);
  }

  std::stable_sort(report.anomalies.begin(), report.anomalies.end(),
                   [](const DedupedAnomaly& a, const DedupedAnomaly& b) {
                     return a.first_found_at < b.first_found_at;
                   });
  return report;
}

std::string CampaignReport::render() const {
  std::ostringstream os;

  TextTable cov({"sys", "fabric", "cc", "cells", "failed", "skipped",
                 "experiments", "found", "distinct", "skips", "cross-skips",
                 "warm-skips", "testbed-hours"});
  for (const SubsystemCoverage& c : coverage) {
    cov.add_row({std::string(1, c.subsystem), c.fabric, c.cc,
                 std::to_string(c.cells), std::to_string(c.failed_cells),
                 std::to_string(c.skipped_cells),
                 std::to_string(c.experiments),
                 std::to_string(c.anomalies_found),
                 std::to_string(c.distinct_anomalies),
                 std::to_string(c.mfs_skips),
                 std::to_string(c.cross_worker_skips),
                 std::to_string(c.warm_start_skips),
                 fmt_double(c.elapsed_seconds / 3600.0, 1)});
  }
  os << "Per-subsystem coverage\n" << cov.render() << "\n";

  TextTable an({"sys", "fabric", "cc", "symptom", "first cell",
                "found at (h)", "hits", "conditions"});
  for (const DedupedAnomaly& a : anomalies) {
    an.add_row({std::string(1, a.subsystem), a.fabric, a.cc,
                core::to_string(a.symptom), a.first_cell,
                fmt_double(a.first_found_at / 3600.0, 2),
                std::to_string(a.occurrences),
                std::to_string(a.representative.conditions.size())});
  }
  os << "Distinct anomalies (deduped by MFS region)\n" << an.render() << "\n";

  os << "Campaign: " << workers << " workers, " << total_experiments
     << " experiments, " << anomalies.size() << " distinct anomalies, "
     << backend << " backend\n";
  os << "  simulated testbed time: serial "
     << fmt_double(serial_seconds / 3600.0, 1) << " h, makespan "
     << fmt_double(makespan_seconds / 3600.0, 1) << " h, speedup "
     << fmt_double(speedup, 2) << "x\n";
  os << "  shared MFS pool: " << pool.entries << " entries, " << pool.hits
     << " hits (" << pool.cross_worker_hits << " cross-worker), "
     << pool.duplicate_inserts << " duplicate inserts\n";
  if (pool.warm_entries > 0) {
    os << "  warm start: " << pool.warm_entries
       << " regions loaded from checkpoint, " << pool.warm_hits
       << " probes skipped inside them\n";
  }
  return os.str();
}

std::string CampaignReport::to_json(const obs::Snapshot* metrics) const {
  core::JsonWriter json;
  json.begin_object();
  json.field("backend", backend);
  json.field("workers", workers);
  json.field("total_experiments", total_experiments);
  json.field("serial_seconds", serial_seconds);
  json.field("makespan_seconds", makespan_seconds);
  json.field("speedup", speedup);
  json.key("pool");
  json.begin_object();
  json.field("entries", pool.entries);
  json.field("warm_entries", pool.warm_entries);
  json.field("hits", pool.hits);
  json.field("cross_worker_hits", pool.cross_worker_hits);
  json.field("warm_hits", pool.warm_hits);
  json.field("duplicate_inserts", pool.duplicate_inserts);
  json.end_object();
  json.begin_array("coverage");
  for (const SubsystemCoverage& c : coverage) {
    json.begin_object();
    json.field("subsystem", std::string(1, c.subsystem));
    json.field("fabric", c.fabric);
    json.field("cc", c.cc);
    json.field("cells", c.cells);
    json.field("failed_cells", c.failed_cells);
    json.field("skipped_cells", c.skipped_cells);
    json.field("experiments", c.experiments);
    json.field("anomalies_found", c.anomalies_found);
    json.field("distinct_anomalies", c.distinct_anomalies);
    json.field("mfs_skips", c.mfs_skips);
    json.field("cross_worker_skips", c.cross_worker_skips);
    json.field("warm_start_skips", c.warm_start_skips);
    json.field("elapsed_seconds", c.elapsed_seconds);
    json.end_object();
  }
  json.end_array();
  json.begin_array("anomalies");
  for (const DedupedAnomaly& a : anomalies) {
    json.begin_object();
    json.field("subsystem", std::string(1, a.subsystem));
    json.field("fabric", a.fabric);
    json.field("cc", a.cc);
    json.field("symptom", core::to_string(a.symptom));
    json.field("mechanism", sim::to_string(a.dominant));
    json.field("first_cell", a.first_cell);
    json.field("first_found_at_seconds", a.first_found_at);
    json.field("occurrences", a.occurrences);
    json.field("conditions", static_cast<i64>(a.representative.conditions.size()));
    json.key("representative");
    core::mfs_to_json(a.representative, &json);
    json.end_object();
  }
  json.end_array();
  if (metrics != nullptr) {
    json.key("metrics");
    metrics->to_json(&json);
  }
  json.end_object();
  return json.str();
}

CampaignReport campaign_report_from_json(const std::string& text) {
  const core::JsonValue doc = core::JsonValue::parse(text);
  CampaignReport report;
  report.backend = doc.at("backend").as_string();
  report.workers = static_cast<int>(doc.at("workers").as_i64());
  report.total_experiments =
      static_cast<int>(doc.at("total_experiments").as_i64());
  report.serial_seconds = doc.at("serial_seconds").as_double();
  report.makespan_seconds = doc.at("makespan_seconds").as_double();
  report.speedup = doc.at("speedup").as_double();
  const core::JsonValue& pool = doc.at("pool");
  report.pool.entries = pool.at("entries").as_i64();
  report.pool.warm_entries = pool.at("warm_entries").as_i64();
  report.pool.hits = pool.at("hits").as_i64();
  report.pool.cross_worker_hits = pool.at("cross_worker_hits").as_i64();
  report.pool.warm_hits = pool.at("warm_hits").as_i64();
  report.pool.duplicate_inserts = pool.at("duplicate_inserts").as_i64();
  for (const core::JsonValue& c : doc.at("coverage").items()) {
    SubsystemCoverage cov;
    const std::string& sys = c.at("subsystem").as_string();
    if (sys.size() != 1) throw core::JsonError("subsystem must be one char");
    cov.subsystem = sys[0];
    cov.fabric = c.at("fabric").as_string();
    cov.cc = c.at("cc").as_string();
    cov.cells = static_cast<int>(c.at("cells").as_i64());
    cov.failed_cells = static_cast<int>(c.at("failed_cells").as_i64());
    cov.skipped_cells = static_cast<int>(c.at("skipped_cells").as_i64());
    cov.experiments = static_cast<int>(c.at("experiments").as_i64());
    cov.anomalies_found = static_cast<int>(c.at("anomalies_found").as_i64());
    cov.distinct_anomalies =
        static_cast<int>(c.at("distinct_anomalies").as_i64());
    cov.mfs_skips = static_cast<int>(c.at("mfs_skips").as_i64());
    cov.cross_worker_skips = c.at("cross_worker_skips").as_i64();
    cov.warm_start_skips = c.at("warm_start_skips").as_i64();
    cov.elapsed_seconds = c.at("elapsed_seconds").as_double();
    report.coverage.push_back(std::move(cov));
  }
  for (const core::JsonValue& a : doc.at("anomalies").items()) {
    DedupedAnomaly an;
    const std::string& sys = a.at("subsystem").as_string();
    if (sys.size() != 1) throw core::JsonError("subsystem must be one char");
    an.subsystem = sys[0];
    an.fabric = a.at("fabric").as_string();
    an.cc = a.at("cc").as_string();
    an.symptom = core::symptom_from_string(a.at("symptom").as_string());
    an.dominant = core::bottleneck_from_string(a.at("mechanism").as_string());
    an.first_cell = a.at("first_cell").as_string();
    an.first_found_at = a.at("first_found_at_seconds").as_double();
    an.occurrences = static_cast<int>(a.at("occurrences").as_i64());
    an.representative = core::mfs_from_json(a.at("representative"));
    if (a.at("conditions").as_i64() !=
        static_cast<i64>(an.representative.conditions.size())) {
      throw core::JsonError("condition count disagrees with representative");
    }
    report.anomalies.push_back(std::move(an));
  }
  return report;
}

WitnessAudit audit_witnesses(const CampaignReport& report) {
  WitnessAudit audit;
  audit.audited = static_cast<int>(report.anomalies.size());
  // One engine per scenario; validate_functional keeps no state between
  // witnesses.
  std::map<std::string, std::unique_ptr<workload::Engine>> engines;
  for (std::size_t i = 0; i < report.anomalies.size(); ++i) {
    const DedupedAnomaly& d = report.anomalies[i];
    CampaignCell cell;
    cell.subsystem = d.subsystem;
    cell.fabric = d.fabric;
    cell.cc = d.cc;
    std::unique_ptr<workload::Engine>& engine =
        engines[cell.subsystem_label()];
    if (engine == nullptr) {
      engine = std::make_unique<workload::Engine>(cell.materialize());
    }
    std::string error;
    if (!engine->validate_functional(d.representative.witness, &error)) {
      audit.illegal.push_back({i, std::move(error)});
    }
  }
  return audit;
}

std::string WitnessAudit::render(const CampaignReport& report) const {
  std::ostringstream os;
  os << "functional audit: " << legal() << " of " << audited
     << " distinct-anomaly witnesses are legal verbs programs\n";
  for (const IllegalWitness& w : illegal) {
    os << "  illegal: anomaly " << w.anomaly << " (first found in "
       << report.anomalies[w.anomaly].first_cell << "): " << w.error << "\n";
  }
  return os.str();
}

std::vector<CampaignTracePoint> aggregate_trace(const CampaignResult& result) {
  std::vector<CampaignTracePoint> out;
  for (const CellResult& cr : result.cells) {
    for (const core::TracePoint& tp : cr.result.trace) {
      CampaignTracePoint p;
      p.t_seconds = cr.start_seconds + tp.t_seconds;
      p.cell = cr.cell.label();
      p.worker = cr.worker;
      p.counter_value = tp.counter_value;
      p.anomaly_found = tp.anomaly_found;
      p.in_mfs_extraction = tp.in_mfs_extraction;
      out.push_back(std::move(p));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CampaignTracePoint& a, const CampaignTracePoint& b) {
                     if (a.t_seconds != b.t_seconds)
                       return a.t_seconds < b.t_seconds;
                     return a.worker < b.worker;
                   });
  return out;
}

namespace {

// RFC-4180 field quoting: labels are normally plain ("B/Diag#0"), but a
// fabric or cc scenario name containing a comma/quote/newline must not
// shear the row.
std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string aggregate_trace_csv(const CampaignResult& result) {
  std::ostringstream os;
  os << "t_seconds,worker,cell,counter_value,anomaly_found,in_mfs_extraction\n";
  for (const CampaignTracePoint& p : aggregate_trace(result)) {
    os << p.t_seconds << "," << p.worker << "," << csv_escape(p.cell) << ","
       << p.counter_value << "," << (p.anomaly_found ? 1 : 0) << ","
       << (p.in_mfs_extraction ? 1 : 0) << "\n";
  }
  return os.str();
}

}  // namespace collie::orchestrator
