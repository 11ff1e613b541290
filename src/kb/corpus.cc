#include "kb/corpus.h"

#include <algorithm>
#include <utility>

#include "catalog/anomalies.h"
#include "core/json_reader.h"
#include "core/report.h"
#include "core/serialize.h"
#include "core/space.h"
#include "net/fabric.h"
#include "nic/dcqcn.h"
#include "workload/engine.h"

namespace collie::kb {
namespace {

constexpr const char* kSchema = "collie-kb-v1";
// Fixed stream for the mechanism-evaluation probes: labeling is a pure
// function of the corpus, never of when it was built.
constexpr u64 kMechanismSeed = 0xC0111EC011EC7ULL;

}  // namespace

std::string ScopeKey::canonical() const {
  std::string out(1, subsystem);
  if (fabric != "pair") out += "@" + fabric;
  if (cc != "off") out += "+" + cc;
  return out;
}

sim::Subsystem ScopeKey::materialize() const {
  return sim::with_cc(sim::with_fabric(sim::subsystem(subsystem),
                                       net::fabric_scenario(fabric)),
                      nic::cc_scenario(cc));
}

ScopeKey parse_scope(const std::string& scope) {
  // Drop a cell-label suffix ("B/Diag#0" -> "B"): cell scopes of one
  // (subsystem, fabric, cc) space are mutually comparable.
  std::string base = scope.substr(0, scope.find('/'));
  if (base.empty()) throw core::JsonError("empty kb scope");
  ScopeKey key;
  key.subsystem = base[0];
  std::string rest = base.substr(1);
  const auto plus = rest.find('+');
  if (plus != std::string::npos) {
    key.cc = rest.substr(plus + 1);
    rest = rest.substr(0, plus);
  }
  if (!rest.empty()) {
    if (rest[0] != '@') {
      throw core::JsonError("malformed kb scope \"" + scope + "\"");
    }
    key.fabric = rest.substr(1);
  }
  const auto known = sim::all_subsystem_ids();
  if (std::find(known.begin(), known.end(), key.subsystem) == known.end()) {
    throw core::JsonError("unknown subsystem in kb scope \"" + scope + "\"");
  }
  if (net::find_fabric_scenario(key.fabric) == nullptr) {
    throw core::JsonError("unknown fabric scenario in kb scope \"" + scope +
                          "\"");
  }
  if (nic::find_cc_scenario(key.cc) == nullptr) {
    throw core::JsonError("unknown cc scenario in kb scope \"" + scope +
                          "\"");
  }
  return key;
}

std::size_t Corpus::size() const {
  std::size_t n = 0;
  for (const auto& [scope, shard] : shards) n += shard.entries.size();
  return n;
}

std::string Corpus::to_json() const {
  core::JsonWriter json;
  json.begin_object();
  json.field("schema", kSchema);
  json.begin_array("shards");
  for (const auto& [scope, shard] : shards) {
    json.begin_object();
    json.field("scope", scope);
    json.begin_array("entries");
    for (const CorpusEntry& e : shard.entries) {
      json.begin_object();
      json.key("mfs");
      core::mfs_to_json(e.mfs, &json);
      json.field("dominant", sim::to_string(e.dominant));
      json.field("anomaly_id", e.anomaly_id);
      json.field("label", e.label);
      json.begin_array("sources");
      for (const Provenance& p : e.sources) {
        json.begin_object();
        json.field("source", p.source);
        json.field("scope", p.scope);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

Corpus Corpus::from_json(const std::string& text) {
  const core::JsonValue doc = core::JsonValue::parse(text);
  const std::string schema = doc.at("schema").as_string();
  if (schema != kSchema) {
    throw core::JsonError("not a " + std::string(kSchema) + " document (\"" +
                          schema + "\")");
  }
  Corpus corpus;
  for (const core::JsonValue& shard_doc : doc.at("shards").items()) {
    const std::string scope = shard_doc.at("scope").as_string();
    const ScopeKey key = parse_scope(scope);
    if (key.canonical() != scope) {
      throw core::JsonError("non-canonical kb shard scope \"" + scope +
                            "\" (expected \"" + key.canonical() + "\")");
    }
    if (corpus.shards.count(scope) > 0) {
      throw core::JsonError("duplicate kb shard scope \"" + scope + "\"");
    }
    CorpusShard& shard = corpus.shards[scope];
    shard.key = key;
    for (const core::JsonValue& entry_doc : shard_doc.at("entries").items()) {
      CorpusEntry e;
      e.mfs = core::mfs_from_json(entry_doc.at("mfs"));
      e.dominant =
          core::bottleneck_from_string(entry_doc.at("dominant").as_string());
      e.anomaly_id = static_cast<int>(entry_doc.at("anomaly_id").as_i64());
      e.label = entry_doc.at("label").as_string();
      for (const core::JsonValue& src : entry_doc.at("sources").items()) {
        e.sources.push_back(Provenance{src.at("source").as_string(),
                                       src.at("scope").as_string()});
      }
      if (e.sources.empty()) {
        throw core::JsonError("kb entry without provenance in scope \"" +
                              scope + "\"");
      }
      shard.entries.push_back(std::move(e));
    }
  }
  return corpus;
}

void CorpusBuilder::add_checkpoint(const orchestrator::CampaignCheckpoint& ck,
                                   const std::string& source) {
  for (const auto& [scope, entries] : ck.scopes) {
    for (const core::Mfs& mfs : entries) {
      add(scope, mfs, Provenance{source, scope});
    }
  }
}

void CorpusBuilder::add(const std::string& scope, core::Mfs mfs,
                        Provenance origin) {
  const ScopeKey key = parse_scope(scope);
  const std::string canonical = key.canonical();
  keys_.emplace(canonical, key);
  Pending p;
  p.mfs = std::move(mfs);
  p.origin = std::move(origin);
  pending_[canonical].push_back(std::move(p));
}

void CorpusBuilder::add_corpus(const Corpus& corpus,
                               const std::string& source) {
  for (const auto& [scope, shard] : corpus.shards) {
    keys_.emplace(scope, shard.key);
    for (const CorpusEntry& e : shard.entries) {
      Pending p;
      p.mfs = e.mfs;
      // The entry's own provenance is authoritative; `source` only tags
      // where it re-entered from when it had none (defensive — from_json
      // rejects provenance-free entries).
      p.origin = e.sources.empty() ? Provenance{source, scope}
                                   : e.sources.front();
      p.dominant = e.dominant;
      p.anomaly_id = e.anomaly_id;
      p.label = e.label;
      p.labeled = true;
      std::vector<Pending>& dst = pending_[scope];
      dst.push_back(std::move(p));
      // Extra merged origins ride along as their own pending records so
      // compaction re-folds them with provenance intact.
      for (std::size_t i = 1; i < e.sources.size(); ++i) {
        Pending extra;
        extra.mfs = e.mfs;
        extra.origin = e.sources[i];
        dst.push_back(std::move(extra));
      }
    }
  }
}

Corpus CorpusBuilder::build(bool evaluate_mechanisms) const {
  Corpus corpus;
  for (const auto& [scope, pendings] : pending_) {
    const ScopeKey& key = keys_.at(scope);
    CorpusShard& shard = corpus.shards[scope];
    shard.key = key;
    const sim::Subsystem sys = key.materialize();
    const core::SearchSpace space(sys);

    // Compact: first-added region wins, later same-region duplicates fold
    // their provenance into it (the report's dedup criterion exactly).
    for (const Pending& p : pendings) {
      CorpusEntry* merged_into = nullptr;
      for (CorpusEntry& e : shard.entries) {
        if (core::same_anomaly_region(space, e.mfs, p.mfs)) {
          merged_into = &e;
          break;
        }
      }
      if (merged_into != nullptr) {
        merged_into->sources.push_back(p.origin);
        continue;
      }
      CorpusEntry e;
      e.mfs = p.mfs;
      e.mfs.index = static_cast<int>(shard.entries.size());
      e.sources.push_back(p.origin);
      e.dominant = p.dominant;
      e.anomaly_id = p.anomaly_id;
      e.label = p.labeled ? p.label : "";
      shard.entries.push_back(std::move(e));
    }

    if (!evaluate_mechanisms) continue;

    // Mechanism join: re-measure each witness on its own subsystem (fixed
    // per-entry RNG stream) and label the dominant bottleneck; region
    // labeling is the fallback, as in evaluation.
    const workload::Engine engine(sys);
    for (std::size_t i = 0; i < shard.entries.size(); ++i) {
      CorpusEntry& e = shard.entries[i];
      Rng rng(kMechanismSeed + i);
      const workload::Measurement m = engine.run(e.mfs.witness, rng);
      e.dominant = m.dominant;
      e.anomaly_id = catalog::identify(sys.nicm.chip, key.fabric,
                                       e.mfs.witness, m.dominant,
                                       catalog::to_catalog(e.mfs.symptom));
      e.label = root_cause_text(e.anomaly_id);
    }
  }
  return corpus;
}

std::string root_cause_text(int anomaly_id) {
  if (anomaly_id == 0) return "";
  // The fabric-level mechanism ids live above the Table-2 range and
  // deliberately have no catalog row.
  if (anomaly_id == 101) {
    return "Fabric congestion: heterogeneous port-rate mismatch";
  }
  if (anomaly_id == 102) {
    return "Fabric congestion: ToR fan-in oversubscription";
  }
  try {
    return catalog::anomaly(anomaly_id).root_cause;
  } catch (const std::out_of_range&) {
    return "";
  }
}

}  // namespace collie::kb
