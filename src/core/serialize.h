// Typed serialize/parse round-trips for the persistence layer.
//
// Every structure a campaign checkpoints — workloads, MFS conditions, full
// MFS entries — serializes through core::JsonWriter in a fixed field order
// and parses back through core::JsonValue, so serialize(parse(serialize(x)))
// is byte-identical to serialize(x).  The *_from_string helpers are the
// exact inverses of the to_string names the writers emit; an unknown name
// is a document error (JsonError), not a silent default — a checkpoint from
// a newer build must fail loudly, never load as the wrong region.
#pragma once

#include <string>

#include "core/json_reader.h"
#include "core/mfs.h"
#include "core/report.h"
#include "core/search.h"
#include "sim/perf_model.h"
#include "workload/engine.h"

namespace collie::core {

// Inverses of the to_string spellings used in JSON documents; throw
// JsonError on an unknown name.
QpType qp_type_from_string(const std::string& s);
Opcode opcode_from_string(const std::string& s);
Symptom symptom_from_string(const std::string& s);
GuidanceMode guidance_mode_from_string(const std::string& s);
Feature feature_from_string(const std::string& s);
sim::Bottleneck bottleneck_from_string(const std::string& s);
// "numa<N>" / "gpu<N>", the topo::to_string(MemPlacement) format.
topo::MemPlacement placement_from_string(const std::string& s);

// Inverse of workload_to_json (core/report.h).
Workload workload_from_json(const JsonValue& v);

// One MFS necessary condition.  Non-finite numeric bounds are omitted from
// the document (JsonWriter would render them as null) and restored to
// +/-infinity on parse, keeping the round trip byte-identical.
void condition_to_json(const FeatureCondition& c, JsonWriter* json);
FeatureCondition condition_from_json(const JsonValue& v);

// A full MFS entry: index, symptom, witness workload, conditions.
void mfs_to_json(const Mfs& mfs, JsonWriter* json);
Mfs mfs_from_json(const JsonValue& v);

// A full engine Measurement, every field, byte-identical round trip (a
// journal probe record's payload).  Doubles round-trip bit-exactly through
// JsonWriter's shortest-decimal rendering.  The reader ignores the empty
// "epochs" array that records written before the per-epoch series was
// removed still carry.
void measurement_to_json(const workload::Measurement& m, JsonWriter* json);
workload::Measurement measurement_from_json(const JsonValue& v);

}  // namespace collie::core
