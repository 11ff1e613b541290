// The persistence layer's contract, fuzzed:
//   * serialize -> parse -> serialize is byte-identical for workloads, MFS
//     conditions, full MFS entries, pool-scope checkpoints, schedules,
//     campaign reports and journal probe records;
//   * parse rejects truncated and garbled documents with JsonError — never
//     UB (every prefix of a valid checkpoint must throw, targeted garbles
//     must throw, random garbles must throw-or-parse, ASan/UBSan CI keeps
//     this honest).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/json_reader.h"
#include "core/report.h"
#include "core/serialize.h"
#include "fleet/messages.h"
#include "orchestrator/campaign.h"
#include "orchestrator/campaign_report.h"
#include "orchestrator/checkpoint.h"
#include "orchestrator/journal.h"
#include "orchestrator/mfs_pool.h"
#include "orchestrator/scheduler.h"
#include "net/fabric.h"
#include "nic/dcqcn.h"
#include "sim/subsystem.h"

namespace collie {
namespace {

using core::JsonError;
using core::JsonValue;
using core::JsonWriter;

std::string workload_json(const Workload& w) {
  JsonWriter json;
  core::workload_to_json(w, &json);
  return json.str();
}

std::string mfs_json(const core::Mfs& mfs) {
  JsonWriter json;
  core::mfs_to_json(mfs, &json);
  return json.str();
}

// A random but structurally plausible MFS: space-sampled witness, random
// subset of features as conditions with random categorical sets / numeric
// bounds (including half-open and fully unconstrained ranges).
core::Mfs random_mfs(const core::SearchSpace& space, Rng& rng) {
  core::Mfs mfs;
  mfs.index = static_cast<int>(rng.uniform_int(0, 40));
  mfs.symptom = rng.bernoulli(0.5) ? core::Symptom::kPauseFrames
                                   : core::Symptom::kLowThroughput;
  mfs.witness = space.random_point(rng);
  for (int fi = 0; fi < core::kNumFeatures; ++fi) {
    if (!rng.bernoulli(0.3)) continue;
    const auto f = static_cast<core::Feature>(fi);
    core::FeatureCondition c;
    c.feature = f;
    c.categorical = core::is_categorical(f);
    if (c.categorical) {
      const int n = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < n; ++i) {
        c.allowed.push_back(static_cast<int>(rng.uniform_int(0, 8)));
      }
    } else {
      const double inf = std::numeric_limits<double>::infinity();
      const double a = rng.uniform(0.5, 2e6);
      const double b = rng.uniform(0.5, 2e6);
      c.lo = rng.bernoulli(0.2) ? -inf : std::min(a, b);
      c.hi = rng.bernoulli(0.2) ? inf : std::max(a, b);
    }
    mfs.conditions.push_back(std::move(c));
  }
  return mfs;
}

// `doc` with the first integer member `key` set to `value`.
std::string with_int_field(std::string doc, const std::string& key,
                           const std::string& value) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = doc.find(tag);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return doc;
  const std::size_t from = at + tag.size();
  const std::size_t to = doc.find_first_not_of("-0123456789", from);
  return doc.replace(from, to - from, value);
}

// ---- JsonValue parser -------------------------------------------------------

TEST(JsonReaderTest, ParsesPrimitivesAndContainers) {
  const JsonValue v = JsonValue::parse(
      R"({"a":1,"b":-2.5,"c":"x\ny","d":true,"e":null,"f":[1,2,[3]],"g":{}})");
  EXPECT_EQ(v.at("a").as_i64(), 1);
  EXPECT_DOUBLE_EQ(v.at("b").as_double(), -2.5);
  EXPECT_EQ(v.at("c").as_string(), "x\ny");
  EXPECT_TRUE(v.at("d").as_bool());
  EXPECT_TRUE(v.at("e").is_null());
  EXPECT_EQ(v.at("f").items().size(), 3u);
  EXPECT_EQ(v.at("f").items()[2].items()[0].as_i64(), 3);
  EXPECT_TRUE(v.at("g").members().empty());
  EXPECT_FALSE(v.has("zzz"));
  EXPECT_THROW(v.at("zzz"), JsonError);
  EXPECT_THROW(v.at("a").as_string(), JsonError);
  EXPECT_THROW(v.at("b").as_i64(), JsonError);  // non-integral
}

TEST(JsonReaderTest, AsIntRejectsValuesOutsideTheIntRange) {
  const JsonValue v = JsonValue::parse(
      R"({"lo":-2147483648,"hi":2147483647,"under":-2147483649,)"
      R"("over":2147483648,"wrap":4294967294,"half":1.5})");
  EXPECT_EQ(v.at("lo").as_int(), -2147483647 - 1);
  EXPECT_EQ(v.at("hi").as_int(), 2147483647);
  EXPECT_THROW(v.at("under").as_int(), JsonError);
  EXPECT_THROW(v.at("over").as_int(), JsonError);
  EXPECT_THROW(v.at("wrap").as_int(), JsonError);  // would wrap to -2
  EXPECT_THROW(v.at("half").as_int(), JsonError);
}

TEST(JsonReaderTest, RejectsTruncationAtEveryPrefix) {
  const std::string doc =
      R"({"key":[1,2,{"s":"a\\b","t":true,"u":null,"v":-1.5e3}]})";
  ASSERT_NO_THROW(JsonValue::parse(doc));
  for (std::size_t n = 0; n < doc.size(); ++n) {
    EXPECT_THROW(JsonValue::parse(doc.substr(0, n)), JsonError)
        << "prefix of length " << n << " parsed";
  }
}

TEST(JsonReaderTest, RejectsGarbledDocuments) {
  const std::vector<std::string> bad = {
      "",
      "   ",
      "{",
      "}",
      "[1,]",
      "{\"a\":}",
      "{\"a\" 1}",
      "{\"a\":1,}",
      "{\"a\":1}x",
      "[1 2]",
      "tru",
      "nul",
      "-",
      "1.",
      "1e",
      "01x",
      "\"unterminated",
      "\"bad escape \\q\"",
      "\"ctrl \x01\"",
      "\"\\u12",
      "\"\\uZZZZ\"",
      "\"\\ud800\"",  // lone surrogate
      "{\"a\":1 \"b\":2}",
  };
  for (const std::string& doc : bad) {
    EXPECT_THROW(JsonValue::parse(doc), JsonError) << "accepted: " << doc;
  }
  // Deep nesting is a clean error, not a stack overflow.
  EXPECT_THROW(JsonValue::parse(std::string(5000, '[')), JsonError);
  const std::string deep =
      std::string(5000, '[') + "1" + std::string(5000, ']');
  EXPECT_THROW(JsonValue::parse(deep), JsonError);
}

TEST(JsonReaderTest, RandomGarblesNeverMisbehave) {
  core::Mfs mfs;
  const core::SearchSpace space(sim::subsystem('F'));
  Rng rng(7);
  mfs = random_mfs(space, rng);
  const std::string doc = mfs_json(mfs);
  // Flip random bytes; the parser must either throw JsonError or return a
  // value — anything else (crash, UB) is caught by the sanitizer jobs.
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbled = doc;
    const auto pos =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<i64>(doc.size()) - 1));
    garbled[pos] = static_cast<char>(rng.uniform_int(1, 127));
    try {
      (void)JsonValue::parse(garbled);
    } catch (const JsonError&) {
      // expected for most mutations
    }
  }
}

TEST(JsonReaderTest, UnescapesExactlyWhatTheWriterEscapes) {
  const std::string nasty = "a\"b\\c\nd\te";
  JsonWriter json;
  json.value(nasty);
  EXPECT_EQ(JsonValue::parse(json.str()).as_string(), nasty);
}

// Regression: the writer used to print doubles at 6 significant digits, so
// a checkpointed bound like 1048576 reloaded as 1048580 — a shifted region
// boundary.  Every double must survive its own JSON round trip bit-exact.
TEST(JsonReaderTest, DoublesRoundTripBitExact) {
  Rng rng(41);
  std::vector<double> values = {1048576.0, 3175683.2, 0.1,  1.0 / 3.0,
                                1e-9,      12345.678, 0.25, 5e15};
  for (int i = 0; i < 200; ++i) {
    values.push_back(rng.uniform(-1e9, 1e9));
    values.push_back(rng.uniform(0.0, 1.0));
  }
  for (const double v : values) {
    JsonWriter json;
    json.value(v);
    EXPECT_EQ(JsonValue::parse(json.str()).as_double(), v) << json.str();
  }
  // Values expressible in few digits keep the compact spelling.
  JsonWriter compact;
  compact.value(1234.5);
  EXPECT_EQ(compact.str(), "1234.5");
}

// The writer's former double formatting, kept here only as the oracle: the
// shortest of precisions 6..17 whose stream spelling strtod reads back.
std::string stream_double_oracle(double v) {
  if (!std::isfinite(v)) return "null";
  std::string s;
  for (int precision = 6; precision <= 17; ++precision) {
    std::ostringstream os;
    os << std::setprecision(precision) << v;
    s = os.str();
    if (std::strtod(s.c_str(), nullptr) == v) break;
  }
  return s;
}

// Report and checkpoint bytes must not move with the formatter: every
// double the writer prints must be spelled exactly as the stream oracle
// spells it.  The inputs cover the spellings' edge cases: random bit
// patterns (every exponent, non-finite included), subnormals, signed zero,
// integers up to 2^53, powers of two and their one-ulp neighbours, and the
// 1048576 that motivated the precision loop.
TEST(JsonReaderTest, DoublesMatchStreamOracleByteForByte) {
  Rng rng(1729);
  std::vector<double> values = {0.0, -0.0, 1048576.0, 1e-9, 0.1, 5e15,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::lowest()};
  for (int i = 0; i < 30000; ++i) {
    values.push_back(std::bit_cast<double>(rng.next_u64()));
  }
  for (int i = 0; i < 10000; ++i) {
    // Subnormals: a zero exponent field, random mantissa and sign.
    values.push_back(
        std::bit_cast<double>(rng.next_u64() & 0x800fffffffffffffULL));
  }
  for (int i = 0; i < 20000; ++i) {
    const u64 bits = 1 + static_cast<u64>(rng.uniform_int(0, 52));
    const double n = static_cast<double>(rng.next_u64() >> (64 - bits));
    values.push_back(n);
    values.push_back(-n);
  }
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const double x : {p, -p}) {
      values.push_back(x);
      values.push_back(std::nextafter(x, 0.0));
      values.push_back(std::nextafter(x, std::copysign(kInf, x)));
    }
  }
  for (int i = 0; i < 10000; ++i) {
    values.push_back(rng.uniform(-1e9, 1e9));
    values.push_back(rng.uniform(0.0, 1.0));
  }
  ASSERT_GE(values.size(), 100000u);
  int mismatches = 0;
  for (const double v : values) {
    JsonWriter json;
    json.value(v);
    const std::string want = stream_double_oracle(v);
    if (json.str() != want && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << v << ": writer " << json.str()
                    << ", oracle " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// ---- Typed round trips ------------------------------------------------------

TEST(PersistenceRoundTrip, WorkloadFuzz) {
  for (const char sys : {'B', 'F', 'C'}) {
    const core::SearchSpace space(sim::subsystem(sys));
    Rng rng(11 + sys);
    for (int i = 0; i < 100; ++i) {
      const Workload w = space.random_point(rng);
      const std::string doc = workload_json(w);
      const Workload parsed = core::workload_from_json(JsonValue::parse(doc));
      EXPECT_EQ(parsed, w) << doc;
      EXPECT_EQ(workload_json(parsed), doc);
    }
  }
}

TEST(PersistenceRoundTrip, CcArmedWorkloadKeepsDcqcnKnobs) {
  const sim::Subsystem armed =
      sim::with_cc(sim::with_fabric(sim::subsystem('F'),
                                    net::fabric_scenario("fanin4")),
                   nic::cc_scenario("dcqcn"));
  const core::SearchSpace space(armed);
  Rng rng(13);
  bool saw_armed = false;
  for (int i = 0; i < 60; ++i) {
    const Workload w = space.random_point(rng);
    saw_armed = saw_armed || w.dcqcn;
    const std::string doc = workload_json(w);
    EXPECT_EQ(core::workload_from_json(JsonValue::parse(doc)), w);
  }
  EXPECT_TRUE(saw_armed) << "fuzz never sampled an armed workload";
}

TEST(PersistenceRoundTrip, MfsFuzzIsByteIdentical) {
  const core::SearchSpace space(sim::subsystem('F'));
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const core::Mfs mfs = random_mfs(space, rng);
    const std::string doc = mfs_json(mfs);
    const core::Mfs parsed = core::mfs_from_json(JsonValue::parse(doc));
    // Byte-identical re-serialization is the checkpoint contract.
    EXPECT_EQ(mfs_json(parsed), doc);
    // And the parse is semantically faithful.
    EXPECT_EQ(parsed.index, mfs.index);
    EXPECT_EQ(parsed.symptom, mfs.symptom);
    EXPECT_EQ(parsed.witness, mfs.witness);
    ASSERT_EQ(parsed.conditions.size(), mfs.conditions.size());
    for (std::size_t c = 0; c < mfs.conditions.size(); ++c) {
      EXPECT_EQ(parsed.conditions[c].feature, mfs.conditions[c].feature);
      EXPECT_EQ(parsed.conditions[c].categorical,
                mfs.conditions[c].categorical);
      EXPECT_EQ(parsed.conditions[c].allowed, mfs.conditions[c].allowed);
      // Bounds reload bit-exact (shortest-round-trip printing): a region
      // boundary that shifts on reload re-probes or masks edge workloads.
      EXPECT_EQ(parsed.conditions[c].lo, mfs.conditions[c].lo);
      EXPECT_EQ(parsed.conditions[c].hi, mfs.conditions[c].hi);
    }
    // A parsed MFS must keep judging workloads: matches() agrees on the
    // original witness.
    EXPECT_EQ(parsed.matches(space, mfs.witness),
              mfs.matches(space, mfs.witness));
  }
}

TEST(PersistenceRoundTrip, CheckpointScopesAreByteIdentical) {
  const core::SearchSpace space(sim::subsystem('F'));
  Rng rng(19);
  orchestrator::ConcurrentMfsPool pool;
  for (int i = 0; i < 12; ++i) {
    const std::string scope = i % 3 == 0 ? "F" : (i % 3 == 1 ? "B" : "F@hetero");
    pool.insert(scope, space, random_mfs(space, rng), i % 4);
  }

  orchestrator::CampaignCheckpoint ck;
  ck.scopes = pool.export_scopes();
  ck.completed_cells = {"B/Diag#0", "F/Diag#0", "F@hetero/Diag#1"};
  const std::string doc = ck.to_json();
  const auto parsed = orchestrator::CampaignCheckpoint::from_json(doc);
  EXPECT_EQ(parsed.to_json(), doc);
  EXPECT_EQ(parsed.scopes.size(), 3u);
  EXPECT_EQ(parsed.scopes.at("F").size(), 4u);
  EXPECT_TRUE(parsed.completed("F/Diag#0"));
  EXPECT_FALSE(parsed.completed("F/Diag#9"));

  // Loading the parsed checkpoint reproduces the pool's MatchMFS verdicts.
  orchestrator::ConcurrentMfsPool reloaded;
  for (const auto& [scope, entries] : parsed.scopes) {
    reloaded.load_scope(scope, entries);
  }
  EXPECT_EQ(reloaded.stats().entries, pool.stats().entries);
  EXPECT_EQ(reloaded.stats().warm_entries, pool.stats().entries);
  Rng probe_rng(23);
  for (const char* scope : {"F", "B", "F@hetero"}) {
    orchestrator::ConcurrentMfsPool::View original = pool.view(scope, 0);
    orchestrator::ConcurrentMfsPool::View loaded = reloaded.view(scope, 0);
    for (int i = 0; i < 50; ++i) {
      const Workload w = space.random_point(probe_rng);
      EXPECT_EQ(loaded.covers(space, w), original.covers(space, w)) << scope;
    }
    // Every reloaded hit is a warm-start hit.
    EXPECT_EQ(loaded.warm_hits(), loaded.hits()) << scope;
  }

  // Truncations of the checkpoint document are rejected, never UB.
  for (std::size_t n = 0; n < doc.size(); n += 7) {
    EXPECT_THROW(orchestrator::CampaignCheckpoint::from_json(doc.substr(0, n)),
                 JsonError);
  }
  EXPECT_THROW(orchestrator::CampaignCheckpoint::from_json(doc + "]"),
               JsonError);
}

// Indexed MatchMFS equivalence through the warm-start path: a pool mixing
// checkpoint-loaded entries with fresh racing-style inserts must answer
// covers() and covers_preloaded() exactly like a linear scan over its
// snapshot — including which entry answers first (provenance) and the
// warm-only restriction of covers_preloaded().
TEST(PersistenceRoundTrip, IndexedCoversMatchesLinearScanWithWarmEntries) {
  const core::SearchSpace space(sim::subsystem('F'));
  for (const u64 seed : {u64{29}, u64{31}}) {
    Rng rng(seed);
    orchestrator::ConcurrentMfsPool pool;
    // Stage 1: warm-start load (possibly in two chunks — load_scope must
    // compose), as a resumed campaign would.
    std::vector<core::Mfs> warm_a;
    std::vector<core::Mfs> warm_b;
    for (int i = 0; i < 6; ++i) warm_a.push_back(random_mfs(space, rng));
    for (int i = 0; i < 4; ++i) warm_b.push_back(random_mfs(space, rng));
    pool.load_scope("F", warm_a);
    pool.load_scope("F", warm_b);
    // Stage 2: fresh inserts from several workers.
    for (int i = 0; i < 10; ++i) {
      pool.insert("F", space, random_mfs(space, rng), i % 3);
    }
    EXPECT_EQ(pool.stats().warm_entries, 10);

    const std::vector<core::Mfs> all = pool.snapshot("F");
    ASSERT_EQ(all.size(), 20u);
    const std::size_t n_warm = 10;
    orchestrator::ConcurrentMfsPool::View view = pool.view("F", /*worker=*/7);
    for (int q = 0; q < 300; ++q) {
      Workload w = q % 4 == 0 ? all[static_cast<std::size_t>(q) % all.size()]
                                    .witness
                              : space.random_point(rng);
      std::size_t first = all.size();  // the linear scan's answering entry
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i].matches(space, w)) {
          first = i;
          break;
        }
      }
      bool linear_warm = false;
      for (std::size_t i = 0; i < n_warm; ++i) {
        if (all[i].matches(space, w)) {
          linear_warm = true;
          break;
        }
      }
      // Provenance: a hit answered by a warm entry counts as a warm hit.
      const i64 warm_before = view.warm_hits();
      EXPECT_EQ(view.covers(space, w), first < all.size());
      EXPECT_EQ(view.warm_hits() - warm_before, first < n_warm ? 1 : 0);
      EXPECT_EQ(view.covers_preloaded(space, w), linear_warm);
    }
  }
}

TEST(PersistenceRoundTrip, CheckpointRejectsWrongVersionAndBadEnums) {
  EXPECT_THROW(orchestrator::CampaignCheckpoint::from_json(
                   R"({"version":2,"scopes":{},"completed_cells":[]})"),
               JsonError);
  // Garbage is a strict parse error, never a partial load: there is no
  // lenient checkpoint salvage (the journal salvages crashed campaigns).
  for (const std::string& garbage :
       {std::string(), std::string("not json at all"),
        std::string(200, '{')}) {
    EXPECT_THROW(orchestrator::CampaignCheckpoint::from_json(garbage),
                 JsonError)
        << garbage;
  }
  // The share scope is recorded and validated: scope keys are meaningless
  // under a different sharing policy.
  EXPECT_THROW(
      orchestrator::CampaignCheckpoint::from_json(
          R"({"version":1,"share":"galaxy","scopes":{},"completed_cells":[]})"),
      JsonError);
  EXPECT_EQ(orchestrator::CampaignCheckpoint::from_json(
                R"({"version":1,"share":"cell","scopes":{},"completed_cells":[]})")
                .share,
            "cell");
  EXPECT_THROW(core::symptom_from_string("sideways"), JsonError);
  EXPECT_THROW(core::feature_from_string("warp_factor"), JsonError);
  EXPECT_THROW(core::qp_type_from_string("XX"), JsonError);
  EXPECT_THROW(core::placement_from_string("numa"), JsonError);
  EXPECT_THROW(core::placement_from_string("disk0"), JsonError);
  EXPECT_EQ(core::placement_from_string("gpu3").kind, topo::MemKind::kGpu);
  EXPECT_EQ(core::placement_from_string("numa1").index, 1);
}

TEST(PersistenceRoundTrip, ScheduleJson) {
  orchestrator::Schedule s;
  s.workers = 3;
  s.queues = {{2, 0}, {1}, {}};
  const std::vector<std::string> labels = {"B/Diag#0", "B/Diag#1", "F/Diag#0"};
  const std::vector<double> budgets = {7200.0, 3600.0, 900.0};
  const std::string doc = orchestrator::schedule_to_json(s, labels, budgets);
  const orchestrator::Schedule parsed = orchestrator::schedule_from_json(doc);
  EXPECT_EQ(parsed.workers, 3);
  ASSERT_EQ(parsed.queues.size(), 3u);
  EXPECT_EQ(parsed.queues[0], (std::vector<std::size_t>{2, 0}));
  EXPECT_EQ(parsed.queues[1], (std::vector<std::size_t>{1}));
  EXPECT_TRUE(parsed.queues[2].empty());
  ASSERT_EQ(parsed.labels[0].size(), 2u);
  EXPECT_EQ(parsed.labels[0][0], "F/Diag#0");
  ASSERT_EQ(parsed.budgets[0].size(), 2u);
  EXPECT_EQ(parsed.budgets[0][0], 900.0);  // queue entry for plan cell 2
  EXPECT_EQ(parsed.budgets[1][0], 3600.0);
  EXPECT_EQ(orchestrator::schedule_to_json(parsed, labels, budgets), doc);

  for (std::size_t n = 0; n < doc.size(); n += 5) {
    EXPECT_THROW(orchestrator::schedule_from_json(doc.substr(0, n)),
                 JsonError);
  }
  EXPECT_THROW(orchestrator::schedule_from_json(
                   R"({"workers":2,"queues":[[]]})"),
               JsonError);  // queue count disagrees
  EXPECT_THROW(orchestrator::schedule_from_json(
                   R"({"workers":0,"queues":[]})"),
               JsonError);
  // 2^32 + 2 workers must not wrap to a two-worker schedule.
  EXPECT_THROW(orchestrator::schedule_from_json(
                   R"({"workers":4294967298,"queues":[[],[]]})"),
               JsonError);
}

TEST(PersistenceRoundTrip, CampaignReportJsonIsByteIdentical) {
  // A synthetic campaign result: two cells, one discovery each in the same
  // region (they dedup), one failed cell, one warm-start-skipped cell.
  const core::SearchSpace space(sim::subsystem('F'));
  Rng rng(29);
  orchestrator::CampaignResult result;
  for (int i = 0; i < 2; ++i) {
    orchestrator::CellResult cr;
    cr.cell.subsystem = 'F';
    cr.cell.seed_ordinal = i;
    cr.worker = i;
    cr.start_seconds = i * 100.0;
    cr.result.experiments = 40 + i;
    cr.result.elapsed_seconds = 1234.5 + i;
    core::FoundAnomaly f;
    f.mfs = random_mfs(space, rng);
    f.mfs.conditions.clear();  // bare witnesses dedup only on identity
    f.mfs.symptom = core::Symptom::kPauseFrames;
    f.dominant = sim::Bottleneck::kRwqeBurstMiss;
    f.found_at_seconds = 17.25;
    cr.result.found.push_back(f);
    result.cells.push_back(std::move(cr));
  }
  result.cells[1].result.found[0].mfs.witness =
      result.cells[0].result.found[0].mfs.witness;
  {
    orchestrator::CellResult failed;
    failed.cell.subsystem = 'F';
    failed.cell.seed_ordinal = 2;
    failed.error = "synthetic failure";
    result.cells.push_back(std::move(failed));
    orchestrator::CellResult skipped;
    skipped.cell.subsystem = 'F';
    skipped.cell.seed_ordinal = 3;
    skipped.skipped = true;
    result.cells.push_back(std::move(skipped));
  }
  result.workers = 2;
  result.serial_seconds = 2470.0;
  result.makespan_seconds = 1235.5;
  result.pool.entries = 2;
  result.pool.warm_entries = 1;
  result.pool.hits = 5;
  result.pool.warm_hits = 2;

  const orchestrator::CampaignReport report = build_report(result);
  ASSERT_EQ(report.anomalies.size(), 1u);
  EXPECT_EQ(report.anomalies[0].occurrences, 2);
  ASSERT_EQ(report.coverage.size(), 1u);
  EXPECT_EQ(report.coverage[0].cells, 2);
  EXPECT_EQ(report.coverage[0].failed_cells, 1);
  EXPECT_EQ(report.coverage[0].skipped_cells, 1);

  const std::string doc = report.to_json();
  const orchestrator::CampaignReport parsed =
      orchestrator::campaign_report_from_json(doc);
  EXPECT_EQ(parsed.to_json(), doc);
  EXPECT_EQ(parsed.workers, report.workers);
  EXPECT_EQ(parsed.total_experiments, report.total_experiments);
  EXPECT_EQ(parsed.pool.warm_entries, 1);
  ASSERT_EQ(parsed.anomalies.size(), 1u);
  EXPECT_EQ(parsed.anomalies[0].representative.witness,
            report.anomalies[0].representative.witness);
  EXPECT_EQ(parsed.coverage[0].skipped_cells, 1);

  for (std::size_t n = 0; n < doc.size(); n += 13) {
    EXPECT_THROW(orchestrator::campaign_report_from_json(doc.substr(0, n)),
                 JsonError);
  }
  // Every count is an int: a value past the int range throws instead of
  // wrapping.
  for (const char* key :
       {"workers", "total_experiments", "cells", "failed_cells",
        "skipped_cells", "experiments", "anomalies_found",
        "distinct_anomalies", "mfs_skips", "occurrences"}) {
    EXPECT_THROW(orchestrator::campaign_report_from_json(
                     with_int_field(doc, key, "4294967296")),
                 JsonError)
        << key;
  }
}

// ---- journal probe records -------------------------------------------------

// A real two-context journal recorded through the splice backend — actual
// simulator measurements (epochs included), actual post-probe RNG states —
// so the round trip exercises every field the replay leg depends on, not a
// synthetic subset.  `probes` holds what was recorded, in journal order.
struct RecordedJournal {
  std::vector<std::string> payloads;  // one probe record per frame
  std::vector<std::pair<std::string, orchestrator::TraceProbe>> probes;
};

std::string journal_path(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "collie_persistence_" + name;
  std::remove(path.c_str());
  std::remove((path + ".torn").c_str());
  return path;
}

RecordedJournal recorded_journal() {
  RecordedJournal out;
  const std::string path = journal_path("probes.journal");
  {
    orchestrator::CampaignJournal journal(path, /*journal_every=*/1);
    orchestrator::SpliceBackendFactory factory(nullptr, nullptr, &journal);
    Rng rng(41);
    for (const char sys_id : {'B', 'F'}) {
      const sim::Subsystem& sys = sim::subsystem(sys_id);
      workload::EngineOptions opts;
      opts.sim.keep_epochs = true;
      opts.backend_factory = &factory;
      opts.backend_context = std::string(1, sys_id) + "/Diag#0";
      workload::Engine engine(sys, opts);
      core::SearchSpace space(sys);
      sim::EvalScratch scratch;
      for (int i = 0; i < 4; ++i) {
        orchestrator::TraceProbe p;
        p.workload = space.random_point(rng);
        engine.run(p.workload, rng, scratch, p.measurement);
        p.rng_after = rng.state();
        out.probes.emplace_back(opts.backend_context, std::move(p));
      }
    }
  }
  const orchestrator::JournalRecovery rec =
      orchestrator::recover_journal(path, /*repair=*/false);
  EXPECT_FALSE(rec.torn);
  out.payloads = rec.payloads;
  std::remove(path.c_str());
  return out;
}

// Frame `payload` with a valid CRC and scan it in memory, so the frame
// check accepts it and parse_journal alone must judge the JSON inside.
orchestrator::JournalResume parse_reframed(const std::string& payload) {
  const orchestrator::JournalRecovery rec = orchestrator::scan_journal(
      orchestrator::kJournalMagic + orchestrator::journal_frame(payload));
  EXPECT_FALSE(rec.torn);
  EXPECT_EQ(rec.payloads.size(), 1u);
  return orchestrator::parse_journal(rec.payloads);
}

TEST(PersistenceRoundTrip, MeasurementJsonIsByteIdentical) {
  const orchestrator::JournalResume parsed =
      orchestrator::parse_journal(recorded_journal().payloads);
  int checked = 0;
  for (const auto& [context, probes] : parsed.recorded) {
    for (const orchestrator::TraceProbe& p : probes) {
      JsonWriter json;
      core::measurement_to_json(p.measurement, &json);
      const std::string doc = json.str();
      const workload::Measurement reparsed =
          core::measurement_from_json(JsonValue::parse(doc));
      JsonWriter again;
      core::measurement_to_json(reparsed, &again);
      EXPECT_EQ(again.str(), doc) << context;
      EXPECT_EQ(reparsed.samples.size(), p.measurement.samples.size());
      EXPECT_EQ(reparsed.epochs.size(), p.measurement.epochs.size());
      EXPECT_EQ(reparsed.stable, p.measurement.stable);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 8);
}

TEST(PersistenceRoundTrip, JournalProbeRecordsRoundTrip) {
  const RecordedJournal recorded = recorded_journal();
  ASSERT_EQ(recorded.payloads.size(), 8u);
  const orchestrator::JournalResume parsed =
      orchestrator::parse_journal(recorded.payloads);
  EXPECT_EQ(parsed.probes, 8);
  ASSERT_EQ(parsed.recorded.size(), 2u);
  std::map<std::string, std::size_t> cursor;
  for (const auto& [context, probe] : recorded.probes) {
    const orchestrator::TraceProbe& back =
        parsed.recorded.at(context).at(cursor[context]++);
    // The replay leg's correctness hangs on these two: workload equality
    // gates the cursor walk, the RNG state restores the search stream.
    EXPECT_EQ(back.workload, probe.workload) << context;
    EXPECT_EQ(back.rng_after, probe.rng_after) << context;
    JsonWriter want;
    JsonWriter got;
    core::measurement_to_json(probe.measurement, &want);
    core::measurement_to_json(back.measurement, &got);
    EXPECT_EQ(got.str(), want.str()) << context;
  }

  // Truncated records are rejected with JsonError at every prefix, never
  // UB, even inside a frame whose CRC holds.
  const std::string& doc = recorded.payloads.front();
  for (std::size_t n = 0; n < doc.size(); n += 17) {
    EXPECT_THROW(parse_reframed(doc.substr(0, n)), JsonError);
  }
  EXPECT_THROW(parse_reframed(doc + "]"), JsonError);
}

TEST(PersistenceRoundTrip, JournalProbeRecordRejectsTargetedGarbles) {
  const std::string doc = recorded_journal().payloads.front();
  ASSERT_NO_THROW(parse_reframed(doc));

  // Malformed RNG state: non-hex character, truncated word, missing key.
  {
    const std::size_t pos = doc.find("\"rng_after\":{\"s\":[\"");
    ASSERT_NE(pos, std::string::npos);
    std::string g = doc;
    g[pos + 19] = 'Z';
    EXPECT_THROW(parse_reframed(g), JsonError);
    g = doc;
    g.erase(pos + 19, 1);  // 15-char word
    EXPECT_THROW(parse_reframed(g), JsonError);
    g = doc;
    g.replace(pos + 13, 3, "\"t\"");  // the "s" key renamed away
    EXPECT_THROW(parse_reframed(g), JsonError);
  }
  // Counter-sample arity mismatch: drop the first perf sample value.
  {
    const std::size_t pos = doc.find("\"perf\":[");
    ASSERT_NE(pos, std::string::npos);
    const std::size_t comma = doc.find(',', pos);
    std::string g = doc;
    g.erase(pos + 8, comma - (pos + 8) + 1);
    EXPECT_THROW(parse_reframed(g), JsonError);
  }
  // Unknown bottleneck name in the measurement.
  {
    const std::size_t pos = doc.find("\"dominant\":\"");
    ASSERT_NE(pos, std::string::npos);
    std::string g = doc;
    g[pos + 12] = 'Z';
    EXPECT_THROW(parse_reframed(g), JsonError);
  }
}

// Journal int fields reject values outside the int range: a begin record's
// worker count, and a journaled insert's origin — 4294967294 would
// otherwise resume as the warm-start origin (-2), its hits counted as
// warm-start skips.
TEST(PersistenceRoundTrip, JournalIntFieldsRejectValuesOutsideTheIntRange) {
  const std::string begin =
      R"({"record":"begin","share":"cell","strategy":"sa","seed":1,)"
      R"("workers":1,"backend":"sim","schedule":)"
      R"("{\"workers\":1,\"queues\":[[]]}"})";
  ASSERT_NO_THROW(parse_reframed(begin));
  EXPECT_THROW(parse_reframed(with_int_field(begin, "workers", "4294967297")),
               JsonError);

  const core::SearchSpace space(sim::subsystem('F'));
  Rng rng(3);
  fleet::Message done;
  done.type = fleet::MsgType::kCellDone;
  done.lease = 1;
  done.result.cell.subsystem = 'F';
  done.inserts.push_back(orchestrator::PoolEntry{random_mfs(space, rng), 0});
  const std::string doc = done.to_json();
  ASSERT_NO_THROW(parse_reframed(doc));
  EXPECT_THROW(parse_reframed(with_int_field(doc, "origin", "4294967294")),
               JsonError);
}

TEST(PersistenceRoundTrip, JournalProbeRecordRandomGarblesNeverMisbehave) {
  const std::string doc = recorded_journal().payloads.front();
  Rng rng(47);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbled = doc;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<i64>(doc.size()) - 1));
    garbled[pos] = static_cast<char>(rng.uniform_int(1, 127));
    try {
      (void)parse_reframed(garbled);
    } catch (const JsonError&) {
      // Rejection is fine; UB is not (ASan/UBSan CI keeps this honest).
    }
  }
}

}  // namespace
}  // namespace collie
