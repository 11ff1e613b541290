// Fleet wire protocol: the four messages the coordinator and its executors
// exchange, as strict JSON documents.
//
// The payload vocabulary deliberately reuses the persistence layer's
// serializers (core/serialize.h): MFS entries cross the wire in exactly the
// checkpoint JSON shape, so what an executor reports is already in the
// format the coordinator checkpoints, the knowledge base merges, and a
// lease preloads.  Like every other document in the repo, parsing is
// strict — truncation, garble, an out-of-range integer or an unknown enum
// name raises core::JsonError, never undefined behaviour (fuzz-pinned by
// tests/fleet_test.cc, same harness as tests/persistence_test.cc).
//
// Protocol sketch (state machines in DESIGN.md "Fleet protocol"):
//   coordinator -> executor:  LeaseCell (cell + the logical worker it runs
//                             as + pool preload, or shutdown=true),
//                             Ack (CellDone accepted)
//   executor -> coordinator:  CellDone (full result + every insert + local
//                             pool-stats delta), Heartbeat (liveness +
//                             progress)
#pragma once

#include <string>
#include <vector>

#include "orchestrator/campaign.h"
#include "orchestrator/mfs_pool.h"

namespace collie::fleet {

// The coordinator's transport endpoint id; executors are 0..N-1.
inline constexpr int kCoordinatorId = -1;

enum class MsgType {
  kLeaseCell,  // coordinator grants a cell under a fresh lease id
  kCellDone,   // executor reports a finished (or failed) cell
  kHeartbeat,  // executor liveness (idle or mid-cell)
  kAck,        // coordinator accepted a CellDone; executor may go idle
};

const char* to_string(MsgType t);
// Inverse of to_string; throws core::JsonError on an unknown name.
MsgType msg_type_from_string(const std::string& s);

// One message, every type.  Only the fields of the tagged type are
// serialized; from_json(to_json(m)) round-trips byte-identically.
struct Message {
  MsgType type = MsgType::kHeartbeat;
  int sender = kCoordinatorId;
  u64 seq = 0;  // per-sender send counter (duplicate tracing / debugging)

  // Lease id this message is about.  Lease ids start at 1; 0 on a
  // Heartbeat means "idle".
  u64 lease = 0;

  // kLeaseCell
  bool shutdown = false;  // true: no more work, executor should exit
  orchestrator::CampaignCell cell;  // valid when !shutdown
  // The schedule's logical worker the cell runs as: its pool-view origin
  // and its CellResult::worker, whichever executor runs it.
  int worker = 0;
  std::string scope;  // pool scope the cell reads/writes
  // Pool state the executor preloads before searching: warm-start entries
  // plus every accepted cell's inserts into this scope.
  std::vector<orchestrator::PoolEntry> preload;

  // kCellDone
  orchestrator::CellResult result;
  // The cell's inserts in local insert order.
  std::vector<orchestrator::PoolEntry> inserts;
  // The executor-local pool's stats after the cell: the coordinator sums
  // the hit/duplicate fields across accepted CellDones (its own pool never
  // serves a search, so only executors observe hits).
  orchestrator::PoolStats pool_delta;

  // kHeartbeat
  bool busy = false;  // true while executing a lease
  i64 probes = 0;     // experiments completed on the current lease so far

  std::string to_json() const;
  // Strict parse; throws core::JsonError on any malformed document.
  static Message from_json(const std::string& text);
};

// One pool entry ({"origin", "mfs"}), the shape every MFS crosses the wire
// and the journal in (journal mfs_batch frames, cell_done inserts, lease
// preloads).
void pool_entry_to_json(const orchestrator::PoolEntry& e,
                        core::JsonWriter* json);
orchestrator::PoolEntry pool_entry_from_json(const core::JsonValue& v);

// Serialized CellResult (shared with checkpoint-style documents).
void cell_to_json(const orchestrator::CampaignCell& cell,
                  core::JsonWriter* json);
orchestrator::CampaignCell cell_from_json(const core::JsonValue& v);
void cell_result_to_json(const orchestrator::CellResult& r,
                         core::JsonWriter* json);
orchestrator::CellResult cell_result_from_json(const core::JsonValue& v);

}  // namespace collie::fleet
