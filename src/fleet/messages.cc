#include "fleet/messages.h"

#include "core/serialize.h"

namespace collie::fleet {

using core::JsonError;
using core::JsonValue;
using core::JsonWriter;

void pool_entry_to_json(const orchestrator::PoolEntry& e, JsonWriter* json) {
  json->begin_object();
  json->field("origin", e.origin);
  json->key("mfs");
  core::mfs_to_json(e.mfs, json);
  json->end_object();
}

orchestrator::PoolEntry pool_entry_from_json(const JsonValue& v) {
  orchestrator::PoolEntry e;
  e.origin = v.at("origin").as_int();
  e.mfs = core::mfs_from_json(v.at("mfs"));
  return e;
}

namespace {

void entries_to_json(const std::string& key,
                     const std::vector<orchestrator::PoolEntry>& entries,
                     JsonWriter* json) {
  json->begin_array(key);
  for (const orchestrator::PoolEntry& e : entries) {
    pool_entry_to_json(e, json);
  }
  json->end_array();
}

std::vector<orchestrator::PoolEntry> entries_from_json(const JsonValue& v) {
  std::vector<orchestrator::PoolEntry> out;
  out.reserve(v.items().size());
  for (const JsonValue& e : v.items()) out.push_back(pool_entry_from_json(e));
  return out;
}

void pool_stats_to_json(const orchestrator::PoolStats& s, JsonWriter* json) {
  json->begin_object();
  json->field("entries", s.entries);
  json->field("warm_entries", s.warm_entries);
  json->field("hits", s.hits);
  json->field("cross_worker_hits", s.cross_worker_hits);
  json->field("warm_hits", s.warm_hits);
  json->field("duplicate_inserts", s.duplicate_inserts);
  json->end_object();
}

orchestrator::PoolStats pool_stats_from_json(const JsonValue& v) {
  orchestrator::PoolStats s;
  s.entries = v.at("entries").as_i64();
  s.warm_entries = v.at("warm_entries").as_i64();
  s.hits = v.at("hits").as_i64();
  s.cross_worker_hits = v.at("cross_worker_hits").as_i64();
  s.warm_hits = v.at("warm_hits").as_i64();
  s.duplicate_inserts = v.at("duplicate_inserts").as_i64();
  return s;
}

void verdict_to_json(const core::Verdict& v, JsonWriter* json) {
  json->begin_object();
  json->field("symptom", core::to_string(v.symptom));
  json->field("pause_duration_ratio", v.pause_duration_ratio);
  json->field("wire_utilization", v.wire_utilization);
  json->field("pps_utilization", v.pps_utilization);
  json->end_object();
}

core::Verdict verdict_from_json(const JsonValue& v) {
  core::Verdict out;
  out.symptom = core::symptom_from_string(v.at("symptom").as_string());
  out.pause_duration_ratio = v.at("pause_duration_ratio").as_double();
  out.wire_utilization = v.at("wire_utilization").as_double();
  out.pps_utilization = v.at("pps_utilization").as_double();
  return out;
}

void found_to_json(const core::FoundAnomaly& f, JsonWriter* json) {
  json->begin_object();
  json->key("mfs");
  core::mfs_to_json(f.mfs, json);
  json->key("verdict");
  verdict_to_json(f.verdict, json);
  json->field("found_at_seconds", f.found_at_seconds);
  json->field("experiment_index", f.experiment_index);
  json->field("dominant", sim::to_string(f.dominant));
  json->end_object();
}

core::FoundAnomaly found_from_json(const JsonValue& v) {
  core::FoundAnomaly f;
  f.mfs = core::mfs_from_json(v.at("mfs"));
  f.verdict = verdict_from_json(v.at("verdict"));
  f.found_at_seconds = v.at("found_at_seconds").as_double();
  f.experiment_index = v.at("experiment_index").as_int();
  f.dominant = core::bottleneck_from_string(v.at("dominant").as_string());
  return f;
}

void trace_point_to_json(const core::TracePoint& t, JsonWriter* json) {
  json->begin_object();
  json->field("t_seconds", t.t_seconds);
  json->field("counter_value", t.counter_value);
  json->field("rx_wqe_cache_miss", t.rx_wqe_cache_miss);
  json->field("anomaly_found", t.anomaly_found);
  json->field("in_mfs_extraction", t.in_mfs_extraction);
  json->end_object();
}

core::TracePoint trace_point_from_json(const JsonValue& v) {
  core::TracePoint t;
  t.t_seconds = v.at("t_seconds").as_double();
  t.counter_value = v.at("counter_value").as_double();
  t.rx_wqe_cache_miss = v.at("rx_wqe_cache_miss").as_double();
  t.anomaly_found = v.at("anomaly_found").as_bool();
  t.in_mfs_extraction = v.at("in_mfs_extraction").as_bool();
  return t;
}

}  // namespace

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kLeaseCell:
      return "lease_cell";
    case MsgType::kCellDone:
      return "cell_done";
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kAck:
      return "ack";
  }
  return "?";
}

MsgType msg_type_from_string(const std::string& s) {
  for (const MsgType t :
       {MsgType::kLeaseCell, MsgType::kCellDone, MsgType::kHeartbeat,
        MsgType::kAck}) {
    if (s == to_string(t)) return t;
  }
  throw JsonError("unknown fleet message type \"" + s + "\"");
}

void cell_to_json(const orchestrator::CampaignCell& cell, JsonWriter* json) {
  json->begin_object();
  json->field("subsystem", std::string(1, cell.subsystem));
  json->field("fabric", cell.fabric);
  json->field("cc", cell.cc);
  json->field("mode", core::to_string(cell.mode));
  json->field("seed_ordinal", cell.seed_ordinal);
  json->field("stream", static_cast<i64>(cell.stream));
  json->field("budget_seconds", cell.budget_seconds);
  json->end_object();
}

orchestrator::CampaignCell cell_from_json(const JsonValue& v) {
  orchestrator::CampaignCell cell;
  const std::string sys = v.at("subsystem").as_string();
  if (sys.size() != 1) {
    throw JsonError("cell subsystem must be one character, got \"" + sys +
                    "\"");
  }
  cell.subsystem = sys[0];
  cell.fabric = v.at("fabric").as_string();
  cell.cc = v.at("cc").as_string();
  cell.mode = core::guidance_mode_from_string(v.at("mode").as_string());
  cell.seed_ordinal = v.at("seed_ordinal").as_int();
  const i64 stream = v.at("stream").as_i64();
  if (stream < 0) {
    throw JsonError("cell stream must be non-negative, got " +
                    std::to_string(stream));
  }
  cell.stream = static_cast<u64>(stream);
  cell.budget_seconds = v.at("budget_seconds").as_double();
  return cell;
}

void cell_result_to_json(const orchestrator::CellResult& r, JsonWriter* json) {
  json->begin_object();
  json->key("cell");
  cell_to_json(r.cell, json);
  json->field("worker", r.worker);
  json->field("start_seconds", r.start_seconds);
  json->field("cross_worker_skips", r.cross_worker_skips);
  json->field("warm_start_skips", r.warm_start_skips);
  json->field("skipped", r.skipped);
  json->field("error", r.error);
  json->field("backend", r.backend);
  json->field("elapsed_seconds", r.result.elapsed_seconds);
  json->field("experiments", r.result.experiments);
  json->field("mfs_skips", r.result.mfs_skips);
  json->begin_array("found");
  for (const core::FoundAnomaly& f : r.result.found) found_to_json(f, json);
  json->end_array();
  json->begin_array("trace");
  for (const core::TracePoint& t : r.result.trace) {
    trace_point_to_json(t, json);
  }
  json->end_array();
  json->end_object();
}

orchestrator::CellResult cell_result_from_json(const JsonValue& v) {
  orchestrator::CellResult r;
  r.cell = cell_from_json(v.at("cell"));
  r.worker = v.at("worker").as_int();
  r.start_seconds = v.at("start_seconds").as_double();
  r.cross_worker_skips = v.at("cross_worker_skips").as_i64();
  r.warm_start_skips = v.at("warm_start_skips").as_i64();
  r.skipped = v.at("skipped").as_bool();
  r.error = v.at("error").as_string();
  r.backend = v.at("backend").as_string();
  r.result.elapsed_seconds = v.at("elapsed_seconds").as_double();
  r.result.experiments = v.at("experiments").as_int();
  r.result.mfs_skips = v.at("mfs_skips").as_int();
  for (const JsonValue& f : v.at("found").items()) {
    r.result.found.push_back(found_from_json(f));
  }
  for (const JsonValue& t : v.at("trace").items()) {
    r.result.trace.push_back(trace_point_from_json(t));
  }
  return r;
}

std::string Message::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.field("type", fleet::to_string(type));
  json.field("sender", sender);
  json.field("seq", static_cast<i64>(seq));
  json.field("lease", static_cast<i64>(lease));
  switch (type) {
    case MsgType::kLeaseCell:
      json.field("shutdown", shutdown);
      if (!shutdown) {
        json.key("cell");
        cell_to_json(cell, &json);
        json.field("worker", worker);
        json.field("scope", scope);
        entries_to_json("preload", preload, &json);
      }
      break;
    case MsgType::kCellDone:
      json.key("result");
      cell_result_to_json(result, &json);
      entries_to_json("inserts", inserts, &json);
      json.key("pool_delta");
      pool_stats_to_json(pool_delta, &json);
      break;
    case MsgType::kHeartbeat:
      json.field("busy", busy);
      json.field("probes", probes);
      break;
    case MsgType::kAck:
      break;
  }
  json.end_object();
  return json.str();
}

Message Message::from_json(const std::string& text) {
  const JsonValue doc = JsonValue::parse(text);
  Message m;
  m.type = msg_type_from_string(doc.at("type").as_string());
  m.sender = doc.at("sender").as_int();
  const i64 seq = doc.at("seq").as_i64();
  const i64 lease = doc.at("lease").as_i64();
  if (seq < 0 || lease < 0) {
    throw JsonError("fleet message seq/lease must be non-negative");
  }
  m.seq = static_cast<u64>(seq);
  m.lease = static_cast<u64>(lease);
  switch (m.type) {
    case MsgType::kLeaseCell:
      m.shutdown = doc.at("shutdown").as_bool();
      if (!m.shutdown) {
        m.cell = cell_from_json(doc.at("cell"));
        m.worker = doc.at("worker").as_int();
        if (m.worker < 0) {
          throw JsonError("lease_cell worker must be non-negative");
        }
        m.scope = doc.at("scope").as_string();
        m.preload = entries_from_json(doc.at("preload"));
        if (m.lease == 0) {
          throw JsonError("lease_cell must carry a non-zero lease id");
        }
      }
      break;
    case MsgType::kCellDone:
      m.result = cell_result_from_json(doc.at("result"));
      m.inserts = entries_from_json(doc.at("inserts"));
      m.pool_delta = pool_stats_from_json(doc.at("pool_delta"));
      if (m.lease == 0) {
        throw JsonError("cell_done must carry a non-zero lease id");
      }
      break;
    case MsgType::kHeartbeat:
      m.busy = doc.at("busy").as_bool();
      m.probes = doc.at("probes").as_i64();
      break;
    case MsgType::kAck:
      if (m.lease == 0) {
        throw JsonError("ack must carry a non-zero lease id");
      }
      break;
  }
  return m;
}

}  // namespace collie::fleet
