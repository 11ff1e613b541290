// Fleet wire protocol: the five messages the coordinator and workers
// exchange, as strict JSON documents.
//
// The payload vocabulary deliberately reuses the persistence layer's
// serializers (core/serialize.h): MFS entries cross the wire in exactly the
// PR 4 checkpoint JSON shape, so anything a worker streams back is already
// in the format the coordinator checkpoints, the knowledge base merges, and
// a replacement worker preloads.  Like every other document in the repo,
// parsing is strict — truncation, garble, or an unknown enum name raises
// core::JsonError, never undefined behaviour (fuzz-pinned by
// tests/fleet_test.cc, same harness as tests/persistence_test.cc).
//
// Protocol sketch (state machines in DESIGN.md "Fleet protocol"):
//   coordinator -> worker:  LeaseCell (cell + start offset + pool preload,
//                           or shutdown=true), Ack (CellDone accepted)
//   worker -> coordinator:  MfsBatch (incremental extractions, ordinal-
//                           numbered per lease), CellDone (full result +
//                           every insert + local pool-stats delta),
//                           Heartbeat (liveness + progress)
#pragma once

#include <string>
#include <vector>

#include "orchestrator/campaign.h"
#include "orchestrator/mfs_pool.h"

namespace collie::fleet {

// The coordinator's transport endpoint id; workers are 0..N-1.
inline constexpr int kCoordinatorId = -1;

enum class MsgType {
  kLeaseCell,  // coordinator grants a cell under a fresh lease id
  kCellDone,   // worker reports a finished (or failed) cell
  kMfsBatch,   // worker streams freshly extracted MFSes mid-cell
  kHeartbeat,  // worker liveness (idle or mid-cell)
  kAck,        // coordinator accepted a CellDone; worker may go idle
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
  bool shutdown = false;  // true: no more work, worker should exit
  orchestrator::CampaignCell cell;  // valid when !shutdown
  double start_seconds = 0.0;  // offset on the worker's virtual timeline
  std::string scope;           // pool scope the cell reads/writes
  // Pool state the worker preloads before searching: warm-start entries
  // plus everything already streamed into this scope (in particular, what a
  // dead worker explained before its lease was revoked).
  std::vector<orchestrator::PoolEntry> preload;

  // kMfsBatch / kCellDone: freshly inserted entries, ordinal-numbered from
  // `first_ordinal` in local insert order.  CellDone carries the complete
  // list (first_ordinal 0) so the coordinator can reconcile batches a fault
  // dropped.
  std::vector<orchestrator::PoolEntry> inserts;
  u64 first_ordinal = 0;

  // kCellDone
  orchestrator::CellResult result;
  // The worker-local pool's stats after the cell: the coordinator sums the
  // hit/duplicate fields across accepted CellDones (its own pool never
  // serves a search, so only workers observe hits).
  orchestrator::PoolStats pool_delta;

  // kHeartbeat
  bool busy = false;  // true while executing a lease
  i64 probes = 0;     // experiments completed on the current lease so far

  std::string to_json() const;
  // Strict parse; throws core::JsonError on any malformed document.
  static Message from_json(const std::string& text);
};

// One pool entry ({"origin", "mfs"}), the shape every MFS crosses the wire
// and the journal in (mfs_batch frames, cell_done inserts, lease preloads).
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
