// The knowledge base's contract:
//   * scope parsing canonicalizes pool scopes and cell labels into one
//     (subsystem, fabric, cc) key and rejects unknown scenario names;
//   * corpus compaction dedups by core::same_anomaly_region — first-added
//     region wins, later duplicates only append provenance — and merges
//     checkpoints recorded under conflicting share policies into one shard;
//   * collie-kb-v1 documents round-trip byte-identical, and truncated or
//     garbled ones throw core::JsonError (the persistence fuzz pattern);
//   * KnowledgeBase answers batch queries against a published directory:
//     hits carry the mechanism join, unknown scopes miss instead of throw.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/json_reader.h"
#include "core/space.h"
#include "kb/corpus.h"
#include "kb/query.h"
#include "orchestrator/checkpoint.h"
#include "sim/subsystem.h"

namespace collie::kb {
namespace {

using core::JsonError;

// An MFS pinning num_qps to [lo, hi], witness at the low edge — the same
// region fixture the overlap-criterion tests use.
core::Mfs qps_range_mfs(const core::SearchSpace& space, core::Symptom symptom,
                        double lo, double hi, u64 seed = 5) {
  core::Mfs mfs;
  mfs.symptom = symptom;
  core::FeatureCondition cond;
  cond.feature = core::Feature::kNumQps;
  cond.categorical = false;
  cond.lo = lo;
  cond.hi = hi;
  mfs.conditions.push_back(cond);
  Rng rng(seed);
  mfs.witness = space.random_point(rng);
  mfs.witness.num_qps = static_cast<int>(lo);
  space.fixup(mfs.witness);
  return mfs;
}

// ---- scope parsing ----------------------------------------------------------

TEST(KbScopeTest, ParsesPoolScopesAndCellLabels) {
  const ScopeKey plain = parse_scope("B");
  EXPECT_EQ(plain.subsystem, 'B');
  EXPECT_EQ(plain.fabric, "pair");
  EXPECT_EQ(plain.cc, "off");
  EXPECT_EQ(plain.canonical(), "B");

  const ScopeKey fabric = parse_scope("F@hetero");
  EXPECT_EQ(fabric.subsystem, 'F');
  EXPECT_EQ(fabric.fabric, "hetero");
  EXPECT_EQ(fabric.canonical(), "F@hetero");

  const ScopeKey cc = parse_scope("F@fanin4+dcqcn");
  EXPECT_EQ(cc.fabric, "fanin4");
  EXPECT_EQ(cc.cc, "dcqcn");
  EXPECT_EQ(cc.canonical(), "F@fanin4+dcqcn");

  // A CC scope without a fabric override keeps the default pair fabric.
  const ScopeKey cc_only = parse_scope("B+mistuned");
  EXPECT_EQ(cc_only.fabric, "pair");
  EXPECT_EQ(cc_only.cc, "mistuned");
  EXPECT_EQ(cc_only.canonical(), "B+mistuned");

  // Cell labels drop their suffix: cells of one space are comparable.
  EXPECT_EQ(parse_scope("B/Diag#0").canonical(), "B");
  EXPECT_EQ(parse_scope("F@hetero/Perf#3").canonical(), "F@hetero");
}

TEST(KbScopeTest, RejectsUnknownScenarioNames) {
  EXPECT_THROW(parse_scope(""), JsonError);
  EXPECT_THROW(parse_scope("/Diag#0"), JsonError);
  EXPECT_THROW(parse_scope("Z"), JsonError);               // no such subsystem
  EXPECT_THROW(parse_scope("F@no-such-fabric"), JsonError);
  EXPECT_THROW(parse_scope("F+no-such-cc"), JsonError);
  EXPECT_THROW(parse_scope("Fhetero"), JsonError);         // missing '@'
}

TEST(KbScopeTest, MaterializeArmsTheScenario) {
  EXPECT_FALSE(parse_scope("F@fanin4").materialize().cc_armed());
  EXPECT_TRUE(parse_scope("F@fanin4+dcqcn").materialize().cc_armed());
}

// ---- corpus compaction ------------------------------------------------------

TEST(CorpusBuilderTest, SameRegionDuplicatesMergeWithProvenanceKept) {
  const core::SearchSpace space(sim::subsystem('F'));
  CorpusBuilder builder;
  // b's witness is inside a's region: same anomaly region, a wins.
  builder.add("F", qps_range_mfs(space, core::Symptom::kPauseFrames, 8, 128),
              Provenance{"ck1.json", "F"});
  builder.add("F", qps_range_mfs(space, core::Symptom::kPauseFrames, 8, 64),
              Provenance{"ck2.json", "F"});
  // Disjoint region: its own entry.
  builder.add("F", qps_range_mfs(space, core::Symptom::kPauseFrames, 512, 1024),
              Provenance{"ck2.json", "F"});
  // Same region, different symptom: never the same anomaly.
  builder.add("F", qps_range_mfs(space, core::Symptom::kLowThroughput, 8, 64),
              Provenance{"ck3.json", "F"});

  const Corpus corpus = builder.build(/*evaluate_mechanisms=*/false);
  ASSERT_EQ(corpus.shards.size(), 1u);
  const CorpusShard& shard = corpus.shards.at("F");
  ASSERT_EQ(shard.entries.size(), 3u);
  // First-added region wins; the duplicate only appended its provenance.
  ASSERT_EQ(shard.entries[0].sources.size(), 2u);
  EXPECT_EQ(shard.entries[0].sources[0].source, "ck1.json");
  EXPECT_EQ(shard.entries[0].sources[1].source, "ck2.json");
  EXPECT_EQ(shard.entries[0].mfs.conditions[0].hi, 128.0);
  EXPECT_EQ(shard.entries[1].sources.size(), 1u);
  EXPECT_EQ(shard.entries[2].sources.size(), 1u);
  // Entries are renumbered to shard positions.
  for (std::size_t i = 0; i < shard.entries.size(); ++i) {
    EXPECT_EQ(shard.entries[i].mfs.index, static_cast<int>(i));
  }
}

TEST(CorpusBuilderTest, ConflictingShareScopesMergeIntoOneShard) {
  // One checkpoint recorded under --share subsystem, one under --share cell:
  // the cell label canonicalizes to the same shard, and the same region
  // dedups across the two spellings with both raw scopes preserved.
  const core::SearchSpace space(sim::subsystem('B'));
  orchestrator::CampaignCheckpoint by_subsystem;
  by_subsystem.share = "subsystem";
  by_subsystem.scopes["B"] = {
      qps_range_mfs(space, core::Symptom::kPauseFrames, 8, 128)};
  orchestrator::CampaignCheckpoint by_cell;
  by_cell.share = "cell";
  by_cell.scopes["B/Diag#0"] = {
      qps_range_mfs(space, core::Symptom::kPauseFrames, 8, 64)};
  by_cell.scopes["B/Diag#1"] = {
      qps_range_mfs(space, core::Symptom::kLowThroughput, 512, 1024)};

  CorpusBuilder builder;
  builder.add_checkpoint(by_subsystem, "ck1.json");
  builder.add_checkpoint(by_cell, "ck2.json");
  const Corpus corpus = builder.build(/*evaluate_mechanisms=*/false);
  ASSERT_EQ(corpus.shards.size(), 1u);
  const CorpusShard& shard = corpus.shards.at("B");
  ASSERT_EQ(shard.entries.size(), 2u);
  ASSERT_EQ(shard.entries[0].sources.size(), 2u);
  EXPECT_EQ(shard.entries[0].sources[0].scope, "B");
  EXPECT_EQ(shard.entries[0].sources[1].scope, "B/Diag#0");
  EXPECT_EQ(shard.entries[1].sources[0].scope, "B/Diag#1");
}

TEST(CorpusBuilderTest, EmptyInputBuildsEmptyCorpus) {
  CorpusBuilder builder;
  EXPECT_EQ(builder.build().size(), 0u);
  builder.add_checkpoint(orchestrator::CampaignCheckpoint{}, "empty.json");
  const Corpus corpus = builder.build();
  EXPECT_EQ(corpus.size(), 0u);
  EXPECT_TRUE(corpus.shards.empty());
  EXPECT_EQ(Corpus::from_json(corpus.to_json()).size(), 0u);
}

TEST(CorpusBuilderTest, BuildIsDeterministic) {
  // Witnesses must come from each scope's own space: conditions and
  // placements are index-encoded against it.
  const core::SearchSpace space_f(sim::subsystem('F'));
  const core::SearchSpace space_b(sim::subsystem('B'));
  CorpusBuilder builder;
  builder.add("F", qps_range_mfs(space_f, core::Symptom::kPauseFrames, 8, 128),
              Provenance{"ck1.json", "F"});
  builder.add("B", qps_range_mfs(space_b, core::Symptom::kLowThroughput, 4, 32),
              Provenance{"ck1.json", "B"});
  // Labeling probes run on a fixed RNG stream: building twice (mechanism
  // evaluation included) is byte-identical.
  EXPECT_EQ(builder.build().to_json(), builder.build().to_json());
}

TEST(CorpusBuilderTest, MechanismJoinLabelsEveryEntry) {
  const core::SearchSpace space(sim::subsystem('F'));
  CorpusBuilder builder;
  builder.add("F", qps_range_mfs(space, core::Symptom::kPauseFrames, 8, 128),
              Provenance{"ck1.json", "F"});
  builder.add("F",
              qps_range_mfs(space, core::Symptom::kLowThroughput, 512, 1024),
              Provenance{"ck1.json", "F"});
  const Corpus corpus = builder.build(/*evaluate_mechanisms=*/true);
  for (const CorpusEntry& e : corpus.shards.at("F").entries) {
    // The label is whatever root_cause_text says about the id — "" only for
    // uncatalogued (id 0) regions.
    EXPECT_EQ(e.label, root_cause_text(e.anomaly_id));
    if (e.anomaly_id != 0) {
      EXPECT_FALSE(e.label.empty());
    }
  }
}

TEST(KbRootCauseTest, TextForMechanismIds) {
  EXPECT_EQ(root_cause_text(0), "");
  EXPECT_EQ(root_cause_text(101),
            "Fabric congestion: heterogeneous port-rate mismatch");
  EXPECT_EQ(root_cause_text(102),
            "Fabric congestion: ToR fan-in oversubscription");
  EXPECT_EQ(root_cause_text(987654), "");  // no catalog row: no text
  EXPECT_FALSE(root_cause_text(1).empty());  // Table-2 rows have headings
}

// ---- collie-kb-v1 persistence ----------------------------------------------

// A small two-shard corpus with a merged-provenance entry, built once for
// the round-trip and fuzz tests below.
Corpus fixture_corpus() {
  // Each scope's witnesses come from its own materialized space: conditions
  // and placements are index-encoded against it.
  const core::SearchSpace pair(parse_scope("F").materialize());
  const core::SearchSpace hetero(parse_scope("F@hetero").materialize());
  CorpusBuilder builder;
  builder.add("F", qps_range_mfs(pair, core::Symptom::kPauseFrames, 8, 128),
              Provenance{"ck1.json", "F"});
  builder.add("F/Diag#0",
              qps_range_mfs(pair, core::Symptom::kPauseFrames, 8, 64),
              Provenance{"ck2.json", "F/Diag#0"});
  builder.add("F@hetero",
              qps_range_mfs(hetero, core::Symptom::kLowThroughput, 512, 1024),
              Provenance{"ck2.json", "F@hetero"});
  return builder.build();
}

TEST(CorpusPersistenceTest, RoundTripIsByteIdentical) {
  const Corpus corpus = fixture_corpus();
  const std::string doc = corpus.to_json();
  const Corpus parsed = Corpus::from_json(doc);
  EXPECT_EQ(parsed.to_json(), doc);
  EXPECT_EQ(parsed.size(), corpus.size());
  ASSERT_EQ(parsed.shards.size(), 2u);
  const CorpusEntry& merged = parsed.shards.at("F").entries[0];
  ASSERT_EQ(merged.sources.size(), 2u);
  EXPECT_EQ(merged.sources[1].source, "ck2.json");
  EXPECT_EQ(merged.sources[1].scope, "F/Diag#0");
  // The mechanism join reloads too.
  EXPECT_EQ(merged.anomaly_id, corpus.shards.at("F").entries[0].anomaly_id);
  EXPECT_EQ(merged.dominant, corpus.shards.at("F").entries[0].dominant);
}

TEST(CorpusPersistenceTest, RejectsTruncationAtEveryPrefix) {
  const std::string doc = fixture_corpus().to_json();
  ASSERT_NO_THROW(Corpus::from_json(doc));
  for (std::size_t n = 0; n < doc.size(); ++n) {
    EXPECT_THROW(Corpus::from_json(doc.substr(0, n)), JsonError)
        << "prefix of length " << n << " parsed";
  }
  EXPECT_THROW(Corpus::from_json(doc + "]"), JsonError);
}

TEST(CorpusPersistenceTest, RejectsTargetedGarbles) {
  const std::string doc = fixture_corpus().to_json();
  // Wrong schema tag.
  {
    std::string g = doc;
    g.replace(g.find("collie-kb-v1"), 12, "collie-kb-v9");
    EXPECT_THROW(Corpus::from_json(g), JsonError);
  }
  // Shard keyed off its canonical scope: "F@pair" canonicalizes to "F".
  {
    std::string g = doc;
    g.replace(g.find("\"scope\":\"F\""), 12, "\"scope\":\"F@pair\"");
    EXPECT_THROW(Corpus::from_json(g), JsonError);
  }
  // Unknown scenario in a shard scope.
  {
    std::string g = doc;
    g.replace(g.find("\"scope\":\"F@hetero\""), 19, "\"scope\":\"F@enrico\"");
    EXPECT_THROW(Corpus::from_json(g), JsonError);
  }
  // Duplicate shard scope: make both shards "F@hetero"... then the first
  // shard's entries canonicalize fine but the scope repeats.
  {
    std::string g = doc;
    g.replace(g.find("\"scope\":\"F\""), 12, "\"scope\":\"F@hetero\"");
    EXPECT_THROW(Corpus::from_json(g), JsonError);
  }
  // Unknown bottleneck name in the mechanism join.
  {
    const std::size_t pos = doc.find("\"dominant\":\"");
    ASSERT_NE(pos, std::string::npos);
    std::string g = doc;
    g[pos + 12] = '?';
    EXPECT_THROW(Corpus::from_json(g), JsonError);
  }
  // An anomaly id past the int range throws instead of wrapping.
  {
    const std::size_t pos = doc.find("\"anomaly_id\":");
    ASSERT_NE(pos, std::string::npos);
    const std::size_t from = pos + 13;
    const std::size_t end = doc.find_first_not_of("-0123456789", from);
    std::string g = doc;
    g.replace(from, end - from, "4294967297");
    EXPECT_THROW(Corpus::from_json(g), JsonError);
  }
  // Provenance-free entry: empty the first sources array.
  {
    const std::size_t pos = doc.find("\"sources\":[");
    ASSERT_NE(pos, std::string::npos);
    const std::size_t end = doc.find(']', pos);
    std::string g = doc.substr(0, pos + 11) + doc.substr(end);
    EXPECT_THROW(Corpus::from_json(g), JsonError);
  }
}

TEST(CorpusPersistenceTest, RandomGarblesNeverMisbehave) {
  const std::string doc = fixture_corpus().to_json();
  Rng rng(51);
  // Flip random bytes; the parser must either throw JsonError or return a
  // corpus — anything else (crash, UB) is caught by the sanitizer jobs.
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbled = doc;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<i64>(doc.size()) - 1));
    garbled[pos] = static_cast<char>(rng.uniform_int(1, 127));
    try {
      (void)Corpus::from_json(garbled);
    } catch (const JsonError&) {
      // expected for most mutations
    }
  }
}

// ---- KnowledgeBase queries --------------------------------------------------

TEST(KnowledgeBaseTest, AnswersHitsWithMechanismJoinAndMissesCleanly) {
  const Corpus corpus = fixture_corpus();
  KnowledgeBase kb;
  EXPECT_EQ(kb.generation(), 0u);
  EXPECT_EQ(kb.size(), 0u);
  kb.merge(corpus);
  EXPECT_EQ(kb.generation(), 1u);
  EXPECT_EQ(kb.size(), corpus.size());
  EXPECT_EQ(kb.scopes(), (std::vector<std::string>{"F", "F@hetero"}));

  const CorpusEntry& known = corpus.shards.at("F").entries[0];
  const QueryResult hit = kb.query("F", known.mfs.witness);
  EXPECT_TRUE(hit.covered);
  EXPECT_EQ(hit.scope, "F");
  EXPECT_EQ(hit.entry, 0);
  EXPECT_EQ(hit.anomaly_id, known.anomaly_id);
  EXPECT_EQ(hit.dominant, known.dominant);
  EXPECT_EQ(hit.label, known.label);
  EXPECT_EQ(hit.mfs.conditions.size(), known.mfs.conditions.size());

  // A cell-label query canonicalizes onto the same shard.
  EXPECT_TRUE(kb.query("F/Perf#7", known.mfs.witness).covered);
  // The same workload misses in a scope whose regions don't cover it.
  const QueryResult other = kb.query("F@hetero", known.mfs.witness);
  EXPECT_EQ(other.scope, "F@hetero");
  // Unknown and unparseable scopes miss — a server answers, it never dies.
  EXPECT_FALSE(kb.query("__unknown__", known.mfs.witness).covered);
  EXPECT_FALSE(kb.query("", known.mfs.witness).covered);
  // A workload outside every region misses.
  Workload far = known.mfs.witness;
  far.num_qps = 100000;
  const core::SearchSpace space(sim::subsystem('F'));
  space.fixup(far);
  if (space.numeric_value(far, core::Feature::kNumQps) > 128.0) {
    EXPECT_FALSE(kb.query("F", far).covered);
  }
}

TEST(KnowledgeBaseTest, BatchQueriesMatchSingleQueries) {
  const Corpus corpus = fixture_corpus();
  KnowledgeBase kb;
  kb.merge(corpus);

  std::vector<Query> batch;
  for (const auto& [scope, shard] : corpus.shards) {
    for (const CorpusEntry& e : shard.entries) {
      batch.push_back(Query{scope, e.mfs.witness});
      batch.push_back(Query{"__unknown__", e.mfs.witness});
    }
  }
  const std::vector<QueryResult> results = kb.query_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QueryResult single = kb.query(batch[i].scope, batch[i].workload);
    EXPECT_EQ(results[i].covered, single.covered) << i;
    EXPECT_EQ(results[i].entry, single.entry) << i;
    EXPECT_EQ(results[i].anomaly_id, single.anomaly_id) << i;
  }
}

TEST(KnowledgeBaseTest, MergeCompactsAgainstPublishedEntries) {
  const core::SearchSpace space(sim::subsystem('F'));
  CorpusBuilder first;
  first.add("F", qps_range_mfs(space, core::Symptom::kPauseFrames, 8, 128),
            Provenance{"day1.json", "F"});
  CorpusBuilder second;
  // Same region from a later corpus refresh plus one genuinely new region.
  second.add("F", qps_range_mfs(space, core::Symptom::kPauseFrames, 8, 64),
             Provenance{"day2.json", "F"});
  second.add("F", qps_range_mfs(space, core::Symptom::kPauseFrames, 512, 1024),
             Provenance{"day2.json", "F"});

  KnowledgeBase kb;
  kb.merge(first.build(/*evaluate_mechanisms=*/false));
  EXPECT_EQ(kb.size(), 1u);
  kb.merge(second.build(/*evaluate_mechanisms=*/false));
  EXPECT_EQ(kb.generation(), 2u);
  // The duplicate folded into the published entry; only the new region
  // appended.
  EXPECT_EQ(kb.size(), 2u);
  const QueryResult hit =
      kb.query("F", qps_range_mfs(space, core::Symptom::kPauseFrames, 8, 128)
                        .witness);
  EXPECT_TRUE(hit.covered);
  EXPECT_EQ(hit.entry, 0);
}

}  // namespace
}  // namespace collie::kb
