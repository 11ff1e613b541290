#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/report.h"
#include "net/fabric.h"
#include "nic/dcqcn.h"
#include "orchestrator/campaign.h"
#include "orchestrator/campaign_report.h"

namespace collie::core {
namespace {

TEST(Json, BasicDocument) {
  JsonWriter j;
  j.begin_object()
      .field("a", 1)
      .field("b", "x\"y")
      .field("c", true)
      .begin_array("xs");
  j.value(1).value(2.5);
  j.end_array().end_object();
  EXPECT_EQ(j.str(), R"({"a":1,"b":"x\"y","c":true,"xs":[1,2.5]})");
}

// Regression: closing a nested container must re-arm the parent's comma —
// every sibling that followed an object/array used to lose its separator,
// producing invalid documents like `{"xs":[]"b":2}`.
TEST(Json, SiblingAfterNestedContainerGetsComma) {
  JsonWriter j;
  j.begin_object();
  j.begin_array("xs").end_array();
  j.field("b", 2);
  j.key("o");
  j.begin_object().field("c", 3).end_object();
  j.begin_array("ys");
  j.value(1);
  j.end_array();
  j.field("d", 4).end_object();
  EXPECT_EQ(j.str(), R"({"xs":[],"b":2,"o":{"c":3},"ys":[1],"d":4})");
}

TEST(Json, EscapesControlCharacters) {
  EXPECT_EQ(JsonWriter::escape("a\nb\\c\"d"), "a\\nb\\\\c\\\"d");
}

TEST(Json, NonFiniteBecomesNull) {
  JsonWriter j;
  j.begin_object().field("inf", std::numeric_limits<double>::infinity());
  j.end_object();
  EXPECT_EQ(j.str(), R"({"inf":null})");
}

TEST(Report, WorkloadJsonHasAllDimensions) {
  Workload w;
  w.pattern = {64 * KiB, 128};
  w.bidirectional = true;
  JsonWriter j;
  workload_to_json(w, &j);
  const std::string out = j.str();
  for (const char* key :
       {"qp_type", "opcode", "num_qps", "wqe_batch", "sge_per_wqe",
        "send_wq_depth", "recv_wq_depth", "mrs_per_qp", "mr_size", "mtu",
        "bidirectional", "loopback", "local_mem", "remote_mem", "pattern"}) {
    EXPECT_NE(out.find(key), std::string::npos) << key;
  }
  EXPECT_NE(out.find("65536,128"), std::string::npos);
}

TEST(Json, RawValueSplicesWithCommaHandling) {
  JsonWriter json;
  json.begin_object();
  json.field("a", 1);
  json.key("embedded");
  json.raw_value("{\"x\":[1,2]}");
  json.field("b", 2);
  json.begin_array("list");
  json.raw_value("3");
  json.raw_value("{\"y\":4}");
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"a\":1,\"embedded\":{\"x\":[1,2]},\"b\":2,"
            "\"list\":[3,{\"y\":4}]}");
}

// JsonWriter::value(double) as first written: the shortest round-trip
// precision searched from 6 up.
std::string reference_double_json(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  char* end = buf;
  for (int precision = 6; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        precision)
              .ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  return std::string(buf, end);
}

// The writer starts its precision search at the shortest round-trip digit
// count; over 10^6 doubles it must print what a search from 6 prints:
// random bit patterns (every exponent, subnormals included), powers of two
// and their neighbours (the asymmetric rounding gap), integers, zeros,
// short decimals and 17-digit values.
TEST(Json, DoublesPrintAsTheSearchFromSixDigits) {
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 0.1, 1e23, 5e-324,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                0.30000000000000004, 1048576.0, 1.04858e+06};
  for (int k = -1074; k <= 1023; ++k) {
    const double p = std::ldexp(1.0, k);
    for (const double x : {p, -p, std::nextafter(p, 0.0),
                           std::nextafter(p, HUGE_VAL)}) {
      values.push_back(x);
    }
  }
  Rng rng(31);
  while (values.size() < 1000000) {
    switch (values.size() % 5) {
      case 0:  // any finite bit pattern
      case 1: {
        const double x = std::bit_cast<double>(rng.next_u64());
        if (std::isfinite(x)) values.push_back(x);
        break;
      }
      case 2:  // integers
        values.push_back(static_cast<double>(
            static_cast<i64>(rng.next_u64() >> rng.uniform_int(10, 63))));
        break;
      case 3:  // short decimals
        values.push_back(static_cast<double>(rng.uniform_int(0, 999999)) /
                         std::pow(10.0, static_cast<double>(
                                            rng.uniform_int(0, 12))));
        break;
      default:  // 17-digit values
        values.push_back(rng.uniform(-1e9, 1e9));
        break;
    }
  }
  int mismatches = 0;
  for (const double v : values) {
    JsonWriter json;
    json.value(v);
    const std::string want = reference_double_json(v);
    if (json.str() != want && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << v << ": writer " << json.str()
                    << ", reference " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace collie::core

namespace collie::orchestrator {
namespace {

// The report's dedup as first written: every (representative, discovery)
// pair of a (subsystem, fabric, cc) group through core::same_anomaly_region,
// which re-derives the witness's features per pair.  Returns the deduped
// anomalies and each group's distinct count, in build_report's order.
std::pair<std::vector<DedupedAnomaly>, std::vector<int>> reference_dedup(
    const CampaignResult& result) {
  struct Discovery {
    const CellResult* cell;
    const core::FoundAnomaly* found;
    double campaign_t;
  };
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
  }
  std::vector<DedupedAnomaly> anomalies;
  std::vector<int> distinct;
  for (const GroupKey& key : group_order) {
    const auto& [sys, fabric, cc] = key;
    auto& discoveries = by_group[key];
    std::stable_sort(discoveries.begin(), discoveries.end(),
                     [](const Discovery& a, const Discovery& b) {
                       return a.campaign_t < b.campaign_t;
                     });
    std::vector<std::size_t> reps;
    if (!discoveries.empty()) {
      CampaignCell group_cell;
      group_cell.subsystem = sys;
      group_cell.fabric = fabric;
      group_cell.cc = cc;
      const core::SearchSpace space(group_cell.materialize());
      for (const Discovery& d : discoveries) {
        bool merged = false;
        for (const std::size_t ri : reps) {
          if (core::same_anomaly_region(space, anomalies[ri].representative,
                                        d.found->mfs)) {
            anomalies[ri].occurrences += 1;
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
        reps.push_back(anomalies.size());
        anomalies.push_back(std::move(rep));
      }
    }
    distinct.push_back(static_cast<int>(reps.size()));
  }
  std::stable_sort(anomalies.begin(), anomalies.end(),
                   [](const DedupedAnomaly& a, const DedupedAnomaly& b) {
                     return a.first_found_at < b.first_found_at;
                   });
  return {std::move(anomalies), distinct};
}

// build_report dedups through each witness's feature row, derived once.
// Over the orchestrator's grids (the two-subsystem seeds grid, the scenario
// fabrics under DCQCN, and a random-strategy sweep of every scenario) its
// report equals one deduped through core::same_anomaly_region, byte for
// byte, and the grids do merge discoveries.
TEST(ReportDedup, FeatureRowsEqualSameAnomalyRegion) {
  std::vector<CampaignConfig> grids(3);
  grids[0].subsystems = {'B', 'F'};
  grids[0].seeds_per_cell = 2;
  grids[0].modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kPerf};
  grids[1].fabrics = {"hetero", "fanin4"};
  grids[1].ccs = {"dcqcn", "mistuned"};
  grids[1].modes = {core::GuidanceMode::kDiag, core::GuidanceMode::kPerf};
  grids[2].fabrics = net::fabric_scenario_names();
  grids[2].ccs = nic::cc_scenario_names();
  grids[2].strategy = Strategy::kRandom;
  int merged = 0;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    CampaignConfig& config = grids[g];
    config.workers = 1;
    config.budget.seconds = 3600.0;
    const CampaignResult result = Campaign(config).run();
    const CampaignReport report = build_report(result);
    CampaignReport reference = report;
    std::vector<int> distinct;
    std::tie(reference.anomalies, distinct) = reference_dedup(result);
    ASSERT_EQ(distinct.size(), reference.coverage.size());
    for (std::size_t c = 0; c < distinct.size(); ++c) {
      reference.coverage[c].distinct_anomalies = distinct[c];
    }
    EXPECT_EQ(report.to_json(), reference.to_json()) << "grid " << g;
    for (const DedupedAnomaly& a : report.anomalies) {
      merged += a.occurrences - 1;
    }
  }
  EXPECT_GT(merged, 0);
}

}  // namespace
}  // namespace collie::orchestrator
