#include "core/serialize.h"

#include <cmath>
#include <cstdlib>
#include <limits>

namespace collie::core {
namespace {

// Generic inverse of an enum's to_string over its contiguous value range.
template <typename Enum, typename Name>
Enum enum_from_string(const std::string& s, int count, Name name,
                      const char* what) {
  for (int i = 0; i < count; ++i) {
    const Enum e = static_cast<Enum>(i);
    if (s == name(e)) return e;
  }
  throw JsonError(std::string("unknown ") + what + " \"" + s + "\"");
}

int parse_index_suffix(const std::string& s, std::size_t prefix_len,
                       const char* what) {
  if (s.size() <= prefix_len) {
    throw JsonError(std::string("malformed ") + what + " \"" + s + "\"");
  }
  char* end = nullptr;
  const long v = std::strtol(s.c_str() + prefix_len, &end, 10);
  if (end != s.c_str() + s.size() || v < 0) {
    throw JsonError(std::string("malformed ") + what + " \"" + s + "\"");
  }
  return static_cast<int>(v);
}

}  // namespace

QpType qp_type_from_string(const std::string& s) {
  return enum_from_string<QpType>(
      s, 3, [](QpType t) { return to_string(t); }, "qp_type");
}

Opcode opcode_from_string(const std::string& s) {
  return enum_from_string<Opcode>(
      s, 3, [](Opcode o) { return to_string(o); }, "opcode");
}

Symptom symptom_from_string(const std::string& s) {
  return enum_from_string<Symptom>(
      s, 3, [](Symptom sy) { return to_string(sy); }, "symptom");
}

GuidanceMode guidance_mode_from_string(const std::string& s) {
  return enum_from_string<GuidanceMode>(
      s, 2, [](GuidanceMode m) { return to_string(m); }, "guidance mode");
}

Feature feature_from_string(const std::string& s) {
  return enum_from_string<Feature>(
      s, kNumFeatures, [](Feature f) { return to_string(f); }, "feature");
}

sim::Bottleneck bottleneck_from_string(const std::string& s) {
  return enum_from_string<sim::Bottleneck>(
      s, static_cast<int>(sim::Bottleneck::kCount),
      [](sim::Bottleneck b) { return sim::to_string(b); }, "bottleneck");
}

topo::MemPlacement placement_from_string(const std::string& s) {
  topo::MemPlacement p;
  if (s.rfind("numa", 0) == 0) {
    p.kind = topo::MemKind::kDram;
    p.index = parse_index_suffix(s, 4, "placement");
  } else if (s.rfind("gpu", 0) == 0) {
    p.kind = topo::MemKind::kGpu;
    p.index = parse_index_suffix(s, 3, "placement");
  } else {
    throw JsonError("unknown placement \"" + s + "\"");
  }
  return p;
}

Workload workload_from_json(const JsonValue& v) {
  Workload w;
  w.qp_type = qp_type_from_string(v.at("qp_type").as_string());
  w.opcode = opcode_from_string(v.at("opcode").as_string());
  w.num_qps = v.at("num_qps").as_int();
  w.wqe_batch = v.at("wqe_batch").as_int();
  w.sge_per_wqe = v.at("sge_per_wqe").as_int();
  w.send_wq_depth = v.at("send_wq_depth").as_int();
  w.recv_wq_depth = v.at("recv_wq_depth").as_int();
  w.mrs_per_qp = v.at("mrs_per_qp").as_int();
  w.mr_size = static_cast<u64>(v.at("mr_size").as_i64());
  w.mtu = static_cast<u32>(v.at("mtu").as_i64());
  w.bidirectional = v.at("bidirectional").as_bool();
  w.loopback = v.at("loopback").as_bool();
  w.local_mem = placement_from_string(v.at("local_mem").as_string());
  w.remote_mem = placement_from_string(v.at("remote_mem").as_string());
  w.dcqcn = v.at("dcqcn").as_bool();
  w.dcqcn_rate_ai_mbps = v.at("dcqcn_rate_ai_mbps").as_double();
  w.dcqcn_g = v.at("dcqcn_g").as_double();
  w.pattern.clear();
  for (const JsonValue& s : v.at("pattern").items()) {
    const i64 bytes = s.as_i64();
    if (bytes < 0) throw JsonError("negative pattern entry");
    w.pattern.push_back(static_cast<u64>(bytes));
  }
  return w;
}

void condition_to_json(const FeatureCondition& c, JsonWriter* json) {
  json->begin_object();
  json->field("feature", to_string(c.feature));
  json->field("categorical", c.categorical);
  if (c.categorical) {
    json->begin_array("allowed");
    for (const int a : c.allowed) json->value(a);
    json->end_array();
  } else {
    // Non-finite bounds are omitted (JsonWriter renders them as null) and
    // restored to the matching infinity on parse.
    if (std::isfinite(c.lo)) json->field("lo", c.lo);
    if (std::isfinite(c.hi)) json->field("hi", c.hi);
  }
  json->end_object();
}

FeatureCondition condition_from_json(const JsonValue& v) {
  FeatureCondition c;
  c.feature = feature_from_string(v.at("feature").as_string());
  c.categorical = v.at("categorical").as_bool();
  if (c.categorical) {
    for (const JsonValue& a : v.at("allowed").items()) {
      c.allowed.push_back(a.as_int());
    }
  } else {
    c.lo = v.has("lo") ? v.at("lo").as_double()
                       : -std::numeric_limits<double>::infinity();
    c.hi = v.has("hi") ? v.at("hi").as_double()
                       : std::numeric_limits<double>::infinity();
  }
  return c;
}

void mfs_to_json(const Mfs& mfs, JsonWriter* json) {
  json->begin_object();
  json->field("index", mfs.index);
  json->field("symptom", to_string(mfs.symptom));
  json->key("witness");
  workload_to_json(mfs.witness, json);
  json->begin_array("conditions");
  for (const FeatureCondition& c : mfs.conditions) condition_to_json(c, json);
  json->end_array();
  json->end_object();
}

Mfs mfs_from_json(const JsonValue& v) {
  Mfs mfs;
  mfs.index = v.at("index").as_int();
  mfs.symptom = symptom_from_string(v.at("symptom").as_string());
  mfs.witness = workload_from_json(v.at("witness"));
  for (const JsonValue& c : v.at("conditions").items()) {
    mfs.conditions.push_back(condition_from_json(c));
  }
  return mfs;
}

namespace {

// One counter fetch: {"perf": [...], "diag": [...]} with exactly
// kNumPerfCounters / kNumDiagCounters entries — a document with the wrong
// arity came from an incompatible build and must fail loudly.
void counter_sample_to_json(const sim::CounterSample& s, JsonWriter* json) {
  json->begin_object();
  json->begin_array("perf");
  for (const double v : s.perf) json->value(v);
  json->end_array();
  json->begin_array("diag");
  for (const double v : s.diag) json->value(v);
  json->end_array();
  json->end_object();
}

sim::CounterSample counter_sample_from_json(const JsonValue& v) {
  sim::CounterSample s;
  const auto& perf = v.at("perf").items();
  const auto& diag = v.at("diag").items();
  if (perf.size() != s.perf.size() || diag.size() != s.diag.size()) {
    throw JsonError("counter sample arity mismatch");
  }
  for (std::size_t i = 0; i < s.perf.size(); ++i) {
    s.perf[i] = perf[i].as_double();
  }
  for (std::size_t i = 0; i < s.diag.size(); ++i) {
    s.diag[i] = diag[i].as_double();
  }
  return s;
}

}  // namespace

void measurement_to_json(const workload::Measurement& m, JsonWriter* json) {
  json->begin_object();
  json->begin_array("samples");
  for (const sim::CounterSample& s : m.samples) {
    counter_sample_to_json(s, json);
  }
  json->end_array();
  json->key("average");
  counter_sample_to_json(m.average, json);
  json->field("pause_duration_ratio", m.pause_duration_ratio);
  json->field("fabric_pause_ratio", m.fabric_pause_ratio);
  json->field("cc_suppressed_ratio", m.cc_suppressed_ratio);
  json->field("wire_utilization", m.wire_utilization);
  json->field("pps_utilization", m.pps_utilization);
  json->field("rx_goodput_bps", m.rx_goodput_bps);
  json->field("stable", m.stable);
  json->field("remeasure_count", m.remeasure_count);
  json->field("cost_seconds", m.cost_seconds);
  json->field("dominant", sim::to_string(m.dominant));
  json->field("note", m.bottleneck_note);
  json->end_object();
}

workload::Measurement measurement_from_json(const JsonValue& v) {
  workload::Measurement m;
  for (const JsonValue& s : v.at("samples").items()) {
    m.samples.push_back(counter_sample_from_json(s));
  }
  m.average = counter_sample_from_json(v.at("average"));
  m.pause_duration_ratio = v.at("pause_duration_ratio").as_double();
  m.fabric_pause_ratio = v.at("fabric_pause_ratio").as_double();
  m.cc_suppressed_ratio = v.at("cc_suppressed_ratio").as_double();
  m.wire_utilization = v.at("wire_utilization").as_double();
  m.pps_utilization = v.at("pps_utilization").as_double();
  m.rx_goodput_bps = v.at("rx_goodput_bps").as_double();
  m.stable = v.at("stable").as_bool();
  m.remeasure_count = v.at("remeasure_count").as_int();
  m.cost_seconds = v.at("cost_seconds").as_double();
  m.dominant = bottleneck_from_string(v.at("dominant").as_string());
  m.bottleneck_note = v.at("note").as_string();
  return m;
}

}  // namespace collie::core
