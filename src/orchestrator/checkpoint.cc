#include "orchestrator/checkpoint.h"

#include <algorithm>

#include "core/json_reader.h"
#include "core/serialize.h"
#include "orchestrator/campaign.h"

namespace collie::orchestrator {

bool CampaignCheckpoint::completed(const std::string& label) const {
  return std::find(completed_cells.begin(), completed_cells.end(), label) !=
         completed_cells.end();
}

std::string CampaignCheckpoint::to_json() const {
  core::JsonWriter json;
  json.begin_object();
  json.field("version", 1);
  json.field("share", share);
  json.key("scopes");
  json.begin_object();
  for (const auto& [scope, entries] : scopes) {
    json.begin_array(scope);
    for (const core::Mfs& mfs : entries) core::mfs_to_json(mfs, &json);
    json.end_array();
  }
  json.end_object();
  json.begin_array("completed_cells");
  for (const std::string& label : completed_cells) json.value(label);
  json.end_array();
  json.end_object();
  return json.str();
}

CampaignCheckpoint CampaignCheckpoint::from_json(const std::string& text) {
  const core::JsonValue doc = core::JsonValue::parse(text);
  const i64 version = doc.at("version").as_i64();
  if (version != 1) {
    throw core::JsonError("unsupported checkpoint version " +
                          std::to_string(version));
  }
  CampaignCheckpoint ck;
  ck.share = doc.at("share").as_string();
  if (ck.share != "subsystem" && ck.share != "cell") {
    throw core::JsonError("unknown share scope \"" + ck.share + "\"");
  }
  for (const auto& [scope, entries] : doc.at("scopes").members()) {
    std::vector<core::Mfs>& dst = ck.scopes[scope];
    for (const core::JsonValue& mfs : entries.items()) {
      dst.push_back(core::mfs_from_json(mfs));
    }
  }
  for (const core::JsonValue& label : doc.at("completed_cells").items()) {
    ck.completed_cells.push_back(label.as_string());
  }
  return ck;
}

CampaignCheckpoint make_checkpoint(const CampaignResult& result) {
  CampaignCheckpoint ck;
  ck.share = to_string(result.share);
  ck.scopes = result.pool_scopes;
  for (const CellResult& cr : result.cells) {
    // Completed = ran to the end of its budget this run, or was already
    // completed by the checkpoint this run warm-started from.  Failed
    // cells are left out so the next run retries them.
    if (cr.skipped || !cr.failed()) {
      ck.completed_cells.push_back(cr.cell.label());
    }
  }
  return ck;
}

}  // namespace collie::orchestrator
