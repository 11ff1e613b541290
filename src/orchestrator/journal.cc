#include "orchestrator/journal.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>

#include "common/durable_io.h"
#include "core/serialize.h"
// Layering note: journal.cc (not the header) speaks the fleet wire format so
// cell_done frames and mfs_batch entries are byte-for-byte the fleet
// protocol's documents, through its one pool-entry codec.  The repo links as
// one static library, so orchestrator/ -> fleet/ is link-legal; the
// dependency is confined to this translation unit.
#include "fleet/messages.h"
#include "workload/backend_sim.h"

namespace collie::orchestrator {
namespace {

using core::JsonError;
using core::JsonValue;
using core::JsonWriter;

void put_u32le(std::string* out, u32 v) {
  out->push_back(static_cast<char>(v & 0xFFu));
  out->push_back(static_cast<char>((v >> 8) & 0xFFu));
  out->push_back(static_cast<char>((v >> 16) & 0xFFu));
  out->push_back(static_cast<char>((v >> 24) & 0xFFu));
}

u32 get_u32le(const unsigned char* p) {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

ShareScope share_scope_from_string(const std::string& s) {
  if (s == "cell") return ShareScope::kCell;
  if (s == "subsystem") return ShareScope::kSubsystem;
  throw JsonError("unknown share scope \"" + s + "\" in journal");
}

std::string hex_u64(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

u64 u64_from_hex(const std::string& s) {
  if (s.size() != 16 ||
      s.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw JsonError("malformed rng state word \"" + s + "\"");
  }
  return static_cast<u64>(std::strtoull(s.c_str(), nullptr, 16));
}

}  // namespace

void rng_state_to_json(const RngState& st, JsonWriter* json) {
  json->begin_object();
  json->begin_array("s");
  for (const u64 w : st.s) json->value(hex_u64(w));
  json->end_array();
  json->end_object();
}

RngState rng_state_from_json(const JsonValue& v) {
  RngState st;
  const auto& words = v.at("s").items();
  if (words.size() != 4) throw JsonError("rng state needs 4 words");
  for (std::size_t i = 0; i < 4; ++i) {
    st.s[i] = u64_from_hex(words[i].as_string());
  }
  return st;
}

// ---- Frame codec -----------------------------------------------------------

namespace {

// Magics of retired format versions, each the size of kJournalMagic: v1
// probe records carry a Box-Muller spare in their RNG state, and v2
// journals carry record kinds this build no longer parses.
constexpr const char* kRetiredJournalMagics[] = {"collie-journal-v1\n",
                                                 "collie-journal-v2\n"};

}  // namespace

std::string journal_frame(std::string_view payload) {
  std::string frame;
  frame.reserve(8 + payload.size());
  put_u32le(&frame, static_cast<u32>(payload.size()));
  put_u32le(&frame, durable_io::crc32(payload.data(), payload.size()));
  frame.append(payload);
  return frame;
}

JournalRecovery scan_journal(std::string_view bytes) {
  JournalRecovery r;
  r.total_bytes = bytes.size();
  const std::string_view header = bytes.substr(0, kJournalMagicSize);

  // A journal of a retired version is rejected up front and left
  // untouched: resuming it would fail or diverge mid-parse, and quarantining
  // it would discard a journal that is valid in its own format.
  for (const char* retired : kRetiredJournalMagics) {
    if (header == retired) {
      r.error = "written as " + std::string(retired, kJournalMagicSize - 1) +
                ", this build reads " +
                std::string(kJournalMagic, kJournalMagicSize - 1) +
                "; start a fresh journal";
      return r;
    }
  }

  // Magic check.  A damaged header means no frame can be trusted: the valid
  // prefix is empty and everything is quarantined.
  if (header == kJournalMagic) {
    std::size_t off = kJournalMagicSize;
    // Truncation scan: accept frames until the first short header, insane
    // length, short payload, or CRC mismatch.
    while (off + 8 <= bytes.size()) {
      const auto* p =
          reinterpret_cast<const unsigned char*>(bytes.data() + off);
      const u64 len = get_u32le(p);
      if (len > bytes.size() - off - 8) break;  // torn or garbled length
      const std::string_view payload =
          bytes.substr(off + 8, static_cast<std::size_t>(len));
      if (get_u32le(p + 4) !=
          durable_io::crc32(payload.data(), payload.size())) {
        break;
      }
      r.payloads.emplace_back(payload);
      off += 8 + payload.size();
    }
    r.valid_bytes = off;
  }
  r.torn = r.valid_bytes < r.total_bytes;
  return r;
}

// ---- Recovery -------------------------------------------------------------

JournalRecovery recover_journal(const std::string& path, bool repair) {
  std::string data;
  if (!durable_io::read_file(path, &data)) {
    JournalRecovery r;
    if (errno == ENOENT) return r;  // no file: a fresh journal
    r.existed = true;
    r.error = "cannot read journal '" + path + "': " + std::strerror(errno);
    return r;
  }
  JournalRecovery r = scan_journal(data);
  r.existed = true;
  if (!repair || !r.torn) return r;

  const std::string torn_path = path + ".torn";
  std::string werr;
  if (!durable_io::atomic_write(torn_path, data.substr(r.valid_bytes),
                                &werr)) {
    r.error = "cannot quarantine torn journal suffix: " + werr;
    return r;
  }
  r.torn_path = torn_path;
  if (::truncate(path.c_str(), static_cast<off_t>(r.valid_bytes)) != 0) {
    r.error = "cannot truncate journal '" + path +
              "': " + std::strerror(errno);
  }
  return r;
}

// ---- CampaignJournal ------------------------------------------------------

CampaignJournal::CampaignJournal(const std::string& path, int journal_every,
                                 i64 crash_after_probes, u64 crash_at_byte)
    : path_(path),
      f_(std::fopen(path.c_str(), "ab")),
      crash_at_byte_(crash_at_byte),
      every_(journal_every > 0 ? journal_every : 1),
      crash_after_probes_(crash_after_probes) {
  if (f_ == nullptr) {
    throw std::runtime_error("cannot open journal '" + path +
                             "': " + std::strerror(errno));
  }
  // "a" positions every write at EOF; the current size is the append base.
  if (std::fseek(f_.get(), 0, SEEK_END) != 0) {
    throw std::runtime_error("cannot seek journal '" + path + "'");
  }
  const long size = std::ftell(f_.get());
  bytes_ = size > 0 ? static_cast<u64>(size) : 0;
  if (bytes_ == 0) {
    write_locked(std::string_view(kJournalMagic, kJournalMagicSize));
    sync_locked();
  }
}

void CampaignJournal::write_locked(std::string_view data) {
  if (crash_at_byte_ > 0 && bytes_ + data.size() >= crash_at_byte_) {
    // Deterministic crash injection: leave the file exactly crash_at_byte_
    // bytes long (no fsync — a real crash would not get one either) and die
    // with the SIGKILL exit code the CI crash harness asserts.
    const std::size_t keep =
        bytes_ >= crash_at_byte_
            ? 0
            : static_cast<std::size_t>(crash_at_byte_ - bytes_);
    if (keep > 0) std::fwrite(data.data(), 1, keep, f_.get());
    std::fflush(f_.get());
    _exit(137);
  }
  if (std::fwrite(data.data(), 1, data.size(), f_.get()) != data.size()) {
    throw std::runtime_error("journal write failed for '" + path_ +
                             "': " + std::strerror(errno));
  }
  bytes_ += data.size();
}

void CampaignJournal::append_locked(std::string_view payload) {
  write_locked(journal_frame(payload));
}

void CampaignJournal::sync_locked() {
  if (std::fflush(f_.get()) != 0) {
    throw std::runtime_error("journal flush failed for '" + path_ +
                             "': " + std::strerror(errno));
  }
  if (::fsync(::fileno(f_.get())) != 0) {
    throw std::runtime_error("journal fsync failed for '" + path_ +
                             "': " + std::strerror(errno));
  }
}

void CampaignJournal::begin(const std::string& share,
                            const std::string& strategy, u64 seed, int workers,
                            const std::string& backend,
                            const std::string& schedule_json) {
  JsonWriter json;
  json.begin_object();
  json.field("record", "begin");
  json.field("share", share);
  json.field("strategy", strategy);
  json.field("seed", static_cast<i64>(seed));
  json.field("workers", workers);
  json.field("backend", backend);
  json.field("schedule", schedule_json);
  json.end_object();
  std::lock_guard<std::mutex> lock(mu_);
  append_locked(json.str());
  sync_locked();
}

void CampaignJournal::resume_marker() {
  std::lock_guard<std::mutex> lock(mu_);
  append_locked("{\"record\":\"resume\"}");
  sync_locked();
}

void CampaignJournal::probe(const std::string& context, const Workload& w,
                            const workload::Measurement& m,
                            const RngState& rng_after) {
  JsonWriter json;
  json.begin_object();
  json.field("record", "probe");
  json.field("context", context);
  json.key("workload");
  core::workload_to_json(w, &json);
  json.key("measurement");
  core::measurement_to_json(m, &json);
  json.key("rng_after");
  rng_state_to_json(rng_after, &json);
  json.end_object();

  std::lock_guard<std::mutex> lock(mu_);
  append_locked(json.str());
  ++probes_;
  if (++since_sync_ >= every_) {
    sync_locked();
    since_sync_ = 0;
  }
  if (crash_after_probes_ > 0 && probes_ == crash_after_probes_) {
    sync_locked();
    _exit(137);
  }
}

void CampaignJournal::mfs_batch(const std::string& context,
                                const std::string& scope,
                                const PoolEntry& entry) {
  JsonWriter json;
  json.begin_object();
  json.field("record", "mfs_batch");
  json.field("context", context);
  json.field("scope", scope);
  json.key("entry");
  fleet::pool_entry_to_json(entry, &json);
  json.end_object();
  std::lock_guard<std::mutex> lock(mu_);
  append_locked(json.str());
  sync_locked();
}

void CampaignJournal::cell_done(const CellResult& result,
                                const std::vector<PoolEntry>& inserts,
                                const PoolStats& delta, u64 lease) {
  fleet::Message m;
  m.type = fleet::MsgType::kCellDone;
  m.sender = result.worker;
  m.lease = lease;
  m.result = result;
  m.inserts = inserts;
  m.pool_delta = delta;
  const std::string payload = m.to_json();
  std::lock_guard<std::mutex> lock(mu_);
  append_locked(payload);
  sync_locked();
  since_sync_ = 0;
}

i64 CampaignJournal::probes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probes_;
}

u64 CampaignJournal::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

// ---- Parsing --------------------------------------------------------------

JournalResume parse_journal(const std::vector<std::string>& payloads) {
  JournalResume r;
  for (const std::string& text : payloads) {
    const JsonValue doc = JsonValue::parse(text);
    if (const JsonValue* rec = doc.find("record")) {
      const std::string& kind = rec->as_string();
      if (kind == "begin") {
        if (r.has_begin) {
          throw JsonError("journal carries two begin records");
        }
        r.has_begin = true;
        r.share = doc.at("share").as_string();
        r.strategy = doc.at("strategy").as_string();
        r.backend = doc.at("backend").as_string();
        const i64 seed = doc.at("seed").as_i64();
        if (seed < 0) throw JsonError("journal seed must be non-negative");
        r.seed = static_cast<u64>(seed);
        r.workers = doc.at("workers").as_int();
        r.schedule = schedule_from_json(doc.at("schedule").as_string());
      } else if (kind == "probe") {
        const std::string& ctx = doc.at("context").as_string();
        TraceProbe p;
        p.workload = core::workload_from_json(doc.at("workload"));
        p.measurement = core::measurement_from_json(doc.at("measurement"));
        p.rng_after = rng_state_from_json(doc.at("rng_after"));
        r.recorded[ctx].push_back(std::move(p));
        ++r.probes;
      } else if (kind == "mfs_batch") {
        const std::string& ctx = doc.at("context").as_string();
        JournalResume::PartialExtractions& pi = r.partial_inserts[ctx];
        pi.scope = doc.at("scope").as_string();
        pi.entries.push_back(fleet::pool_entry_from_json(doc.at("entry")));
      } else if (kind == "resume") {
        ++r.sessions;
      } else {
        throw JsonError("unknown journal record \"" + kind + "\"");
      }
      continue;
    }
    // No "record" tag: the fleet vocabulary (a verbatim wire message).
    const fleet::Message m = fleet::Message::from_json(text);
    if (m.type != fleet::MsgType::kCellDone) {
      throw JsonError(std::string("unexpected fleet message in journal: ") +
                      fleet::to_string(m.type));
    }
    const std::string label = m.result.cell.label();
    RestoredCell rc;
    rc.result = m.result;
    rc.inserts = m.inserts;
    rc.delta = m.pool_delta;
    if (r.completed.count(label) == 0) r.completion_order.push_back(label);
    r.completed[label] = std::move(rc);
    // Streamed extractions are superseded by the cell_done document; the
    // cell's probe records stay (they are what --replay serves).
    r.partial_inserts.erase(label);
  }
  return r;
}

CampaignCheckpoint journal_to_checkpoint(const JournalResume& resume) {
  CampaignCheckpoint ckpt;
  ckpt.share = resume.share.empty() ? "subsystem" : resume.share;
  const ShareScope share = share_scope_from_string(ckpt.share);
  for (const std::string& label : resume.completion_order) {
    const RestoredCell& rc = resume.completed.at(label);
    std::vector<core::Mfs>& scope = ckpt.scopes[rc.result.cell.scope(share)];
    for (const PoolEntry& e : rc.inserts) scope.push_back(e.mfs);
    ckpt.completed_cells.push_back(label);
  }
  // Partial cells' streamed extractions are knowledge worth keeping even
  // though the cell never finished; the cell itself is not completed.  A
  // crash during a *resumed* session journals a replayed insert a second
  // time; the MFS index disambiguates (replay re-inserts at the same pool
  // position).
  for (const auto& [context, pi] : resume.partial_inserts) {
    (void)context;
    std::set<int> seen;
    for (const PoolEntry& e : pi.entries) {
      if (!seen.insert(e.mfs.index).second) continue;
      ckpt.scopes[pi.scope].push_back(e.mfs);
    }
  }
  return ckpt;
}

// ---- Splice backend -------------------------------------------------------

namespace {

class SpliceBackend final : public workload::Backend {
 public:
  SpliceBackend(std::unique_ptr<workload::Backend> inner,
                const std::vector<TraceProbe>* prefix, std::string context,
                CampaignJournal* journal, std::atomic<i64>* replayed,
                std::atomic<i64>* live)
      : inner_(std::move(inner)),
        prefix_(prefix),
        context_(std::move(context)),
        journal_(journal),
        replayed_(replayed),
        live_(live) {}

  workload::BackendKind kind() const override {
    return workload::BackendKind::kTrace;
  }
  const std::string& substrate() const override { return inner_->substrate(); }

  void measure(const Workload& w, Rng& rng, sim::EvalScratch& scratch,
               workload::Measurement& out) override {
    if (prefix_ != nullptr && cursor_ < prefix_->size()) {
      const TraceProbe& p = (*prefix_)[cursor_];
      if (!(p.workload == w)) {
        throw std::runtime_error(
            "journal context \"" + context_ + "\" probe " +
            std::to_string(cursor_) +
            " was recorded for a different workload — replay diverged "
            "(journal recorded against different flags?)");
      }
      out = p.measurement;
      rng.set_state(p.rng_after);
      ++cursor_;
      replayed_->fetch_add(1, std::memory_order_relaxed);
      return;
    }
    inner_->measure(w, rng, scratch, out);
    if (journal_ != nullptr) journal_->probe(context_, w, out, rng.state());
    live_->fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<workload::Backend> inner_;
  const std::vector<TraceProbe>* prefix_;  // null = no prefix
  std::string context_;
  CampaignJournal* journal_;
  std::atomic<i64>* replayed_;
  std::atomic<i64>* live_;
  std::size_t cursor_ = 0;
};

// The live tail of an offline replay: there is none.  Reaching it means the
// cell asked for more probes than its recording holds.
class RecordingEndBackend final : public workload::Backend {
 public:
  RecordingEndBackend(const std::string& substrate, std::string context,
                      std::size_t recorded)
      : substrate_(substrate),
        context_(std::move(context)),
        recorded_(recorded) {}

  workload::BackendKind kind() const override {
    return workload::BackendKind::kTrace;
  }
  const std::string& substrate() const override { return substrate_; }
  void measure(const Workload&, Rng&, sim::EvalScratch&,
               workload::Measurement&) override {
    throw std::runtime_error("journal context \"" + context_ +
                             "\" ran out after " + std::to_string(recorded_) +
                             " recorded probes — replay diverged");
  }

 private:
  const std::string& substrate_;
  std::string context_;
  std::size_t recorded_;
};

class RecordingEndFactory final : public workload::BackendFactory {
 public:
  explicit RecordingEndFactory(const JournalResume& recording)
      : recording_(recording) {}

  workload::BackendKind kind() const override {
    return workload::BackendKind::kTrace;
  }
  const std::string& substrate() const override { return recording_.backend; }
  std::unique_ptr<workload::Backend> create(
      const sim::Subsystem&, const workload::EngineOptions&,
      const std::string& context) override {
    const auto it = recording_.recorded.find(context);
    return std::make_unique<RecordingEndBackend>(
        recording_.backend, context,
        it != recording_.recorded.end() ? it->second.size() : 0);
  }

 private:
  const JournalResume& recording_;
};

}  // namespace

SpliceBackendFactory::SpliceBackendFactory(
    std::shared_ptr<workload::BackendFactory> inner,
    const JournalResume* resume, CampaignJournal* journal)
    : inner_(std::move(inner)), resume_(resume), journal_(journal) {}

const std::string& SpliceBackendFactory::substrate() const {
  static const std::string kSim = "sim";
  return inner_ != nullptr ? inner_->substrate() : kSim;
}

std::unique_ptr<workload::Backend> SpliceBackendFactory::create(
    const sim::Subsystem& sys, const workload::EngineOptions& opts,
    const std::string& context) {
  std::unique_ptr<workload::Backend> inner =
      inner_ != nullptr ? inner_->create(sys, opts, context)
                        : std::make_unique<workload::SimBackend>(sys, opts);
  const std::vector<TraceProbe>* prefix = nullptr;
  if (resume_ != nullptr) {
    const auto it = resume_->recorded.find(context);
    if (it != resume_->recorded.end()) prefix = &it->second;
  }
  return std::make_unique<SpliceBackend>(std::move(inner), prefix, context,
                                         journal_, &replayed_, &live_);
}

std::shared_ptr<workload::BackendFactory> journal_replay_factory(
    const JournalResume& recording) {
  return std::make_shared<SpliceBackendFactory>(
      std::make_shared<RecordingEndFactory>(recording), &recording, nullptr);
}

// ---- JournalingStore ------------------------------------------------------

JournalingStore::JournalingStore(ConcurrentMfsPool::View& view,
                                 CampaignJournal* journal, std::string context,
                                 std::string scope, int worker)
    : view_(view),
      journal_(journal),
      context_(std::move(context)),
      scope_(std::move(scope)),
      worker_(worker) {}

bool JournalingStore::covers(const core::SearchSpace& space,
                             const Workload& w) {
  return view_.covers(space, w);
}

bool JournalingStore::covers_preloaded(const core::SearchSpace& space,
                                       const Workload& w) {
  return view_.covers_preloaded(space, w);
}

int JournalingStore::insert(const core::SearchSpace& space, core::Mfs mfs) {
  core::Mfs copy = mfs;
  const int index = view_.insert(space, std::move(mfs));
  copy.index = index;
  PoolEntry entry{std::move(copy), worker_};
  if (journal_ != nullptr) journal_->mfs_batch(context_, scope_, entry);
  inserts_.push_back(std::move(entry));
  return index;
}

std::size_t JournalingStore::size() const { return view_.size(); }

std::vector<core::Mfs> JournalingStore::snapshot() const {
  return view_.snapshot();
}

}  // namespace collie::orchestrator
