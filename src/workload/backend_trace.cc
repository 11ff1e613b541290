#include "workload/backend_trace.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/serialize.h"
#include "workload/backend_sim.h"

namespace collie::workload {
namespace {

constexpr const char* kSchema = "collie-trace-v2";

std::string hex_u64(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

u64 u64_from_hex(const std::string& s) {
  if (s.size() != 16 ||
      s.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw core::JsonError("malformed rng state word \"" + s + "\"");
  }
  return static_cast<u64>(std::strtoull(s.c_str(), nullptr, 16));
}

}  // namespace

void rng_state_to_json(const RngState& st, core::JsonWriter* json) {
  json->begin_object();
  json->begin_array("s");
  for (const u64 w : st.s) json->value(hex_u64(w));
  json->end_array();
  json->end_object();
}

RngState rng_state_from_json(const core::JsonValue& v) {
  RngState st;
  const auto& words = v.at("s").items();
  if (words.size() != 4) throw core::JsonError("rng state needs 4 words");
  for (std::size_t i = 0; i < 4; ++i) {
    st.s[i] = u64_from_hex(words[i].as_string());
  }
  return st;
}

std::string TraceFile::to_json() const {
  core::JsonWriter json;
  json.begin_object();
  json.field("schema", kSchema);
  json.field("substrate", substrate);
  json.begin_array("contexts");
  for (const auto& [name, probes] : contexts) {  // std::map: sorted order
    json.begin_object();
    json.field("context", name);
    json.begin_array("probes");
    for (const TraceProbe& p : probes) {
      json.begin_object();
      json.key("workload");
      core::workload_to_json(p.workload, &json);
      json.key("measurement");
      core::measurement_to_json(p.measurement, &json);
      json.key("rng_after");
      rng_state_to_json(p.rng_after, &json);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

TraceFile TraceFile::from_json(const std::string& text) {
  const core::JsonValue doc = core::JsonValue::parse(text);
  const std::string& schema = doc.at("schema").as_string();
  if (schema != kSchema) {
    // Checked before any probe is parsed: a trace from another model
    // version must fail here, never as a divergence mid-replay.
    throw core::JsonError("unsupported trace schema \"" + schema +
                          "\" (this build reads " + kSchema + ")");
  }
  TraceFile file;
  file.substrate = doc.at("substrate").as_string();
  for (const core::JsonValue& ctx : doc.at("contexts").items()) {
    const std::string& name = ctx.at("context").as_string();
    if (file.contexts.count(name) != 0) {
      throw core::JsonError("duplicate trace context \"" + name + "\"");
    }
    std::vector<TraceProbe>& probes = file.contexts[name];
    for (const core::JsonValue& p : ctx.at("probes").items()) {
      TraceProbe probe;
      probe.workload = core::workload_from_json(p.at("workload"));
      probe.measurement = core::measurement_from_json(p.at("measurement"));
      probe.rng_after = rng_state_from_json(p.at("rng_after"));
      probes.push_back(std::move(probe));
    }
  }
  return file;
}

void TraceRecorder::record(const std::string& context, const Workload& w,
                           const Measurement& m, const RngState& rng_after) {
  std::lock_guard<std::mutex> lock(mu_);
  file_.contexts[context].push_back(TraceProbe{w, m, rng_after});
}

TraceFile TraceRecorder::file() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_;
}

std::string TraceRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_.to_json();
}

RecordBackend::RecordBackend(std::unique_ptr<Backend> inner,
                             std::shared_ptr<TraceRecorder> recorder,
                             std::string context)
    : inner_(std::move(inner)),
      recorder_(std::move(recorder)),
      context_(std::move(context)) {}

void RecordBackend::measure(const Workload& w, Rng& rng,
                            sim::EvalScratch& scratch, Measurement& out) {
  inner_->measure(w, rng, scratch, out);
  recorder_->record(context_, w, out, rng.state());
}

TraceBackend::TraceBackend(std::shared_ptr<const TraceFile> file,
                           std::string context)
    : file_(std::move(file)), context_(std::move(context)) {
  const auto it = file_->contexts.find(context_);
  if (it == file_->contexts.end()) {
    throw std::runtime_error("trace has no context \"" + context_ + "\"");
  }
  probes_ = &it->second;
}

void TraceBackend::measure(const Workload& w, Rng& rng, sim::EvalScratch&,
                           Measurement& out) {
  if (cursor_ >= probes_->size()) {
    throw std::runtime_error(
        "trace context \"" + context_ + "\" exhausted after " +
        std::to_string(probes_->size()) + " probes — replay diverged");
  }
  const TraceProbe& probe = (*probes_)[cursor_];
  if (!(probe.workload == w)) {
    throw std::runtime_error(
        "trace context \"" + context_ + "\" probe " +
        std::to_string(cursor_) +
        " was recorded for a different workload — replay diverged");
  }
  out = probe.measurement;
  rng.set_state(probe.rng_after);
  ++cursor_;
}

RecordBackendFactory::RecordBackendFactory(
    std::shared_ptr<TraceRecorder> recorder)
    : recorder_(std::move(recorder)) {
  if (recorder_ == nullptr) {
    throw std::invalid_argument("RecordBackendFactory needs a recorder");
  }
}

const std::string& RecordBackendFactory::substrate() const {
  static const std::string kSim = "sim";
  return kSim;
}

std::unique_ptr<Backend> RecordBackendFactory::create(
    const sim::Subsystem& sys, const EngineOptions& opts,
    const std::string& context) {
  return std::make_unique<RecordBackend>(
      std::make_unique<SimBackend>(sys, opts), recorder_, context);
}

ReplayBackendFactory::ReplayBackendFactory(
    std::shared_ptr<const TraceFile> file)
    : file_(std::move(file)) {
  if (file_ == nullptr) {
    throw std::invalid_argument("ReplayBackendFactory needs a trace");
  }
}

std::unique_ptr<Backend> ReplayBackendFactory::create(const sim::Subsystem&,
                                                      const EngineOptions&,
                                                      const std::string&
                                                          context) {
  return std::make_unique<TraceBackend>(file_, context);
}

}  // namespace collie::workload
