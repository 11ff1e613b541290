// kb_server: the anomaly knowledge base as a (stdin/JSON) query service.
//
// Build a corpus from campaign checkpoints, then answer "would my workload
// hit a known anomaly, and whose fault is it?" — each hit returns the
// covering MFS, the simulator's dominant bottleneck for its witness, and
// the catalog's Table-2-style label.
//
// Run with --help for the modes (kUsage below).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/durable_io.h"
#include "core/json_reader.h"
#include "core/report.h"
#include "core/serialize.h"
#include "kb/corpus.h"
#include "kb/query.h"
#include "orchestrator/checkpoint.h"

using namespace collie;

namespace {

constexpr char kUsage[] = R"(usage: kb_server MODE

  kb_server --build corpus.json ck1.json ck2.json ...
      Merge + compact checkpoints into a collie-kb-v1 corpus.
  kb_server --corpus corpus.json
      Serve: one JSON query per stdin line, one JSON answer per stdout
      line.  Query:  {"scope": "B", "workload": {...}}
      Answer: {"covered": true, "scope": "B", "entry": 3,
               "anomaly_id": 7, "dominant": "...", "label": "...",
               "mfs": {...}}   (just {"covered": false} on a miss)
  kb_server --corpus corpus.json --queries q.jsonl
      Batch mode: answer every line of the file, then print a
      queries/sec summary to stderr.
  kb_server --corpus corpus.json --emit-queries q.jsonl
      Write a batch file exercising the corpus: every witness of a
      conditioned entry (guaranteed hits) plus unknown-scope probes
      (guaranteed clean misses) — the CI kb-smoke job round-trips this.
  kb_server --corpus corpus.json --self-check
      Every conditioned entry's witness must hit its own scope.
  kb_server --help
      Print this reference and exit.
)";

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  return true;
}

// Atomic emission (temp + fsync + rename): a crash mid-build must never
// leave a torn corpus where a valid one stood.
bool write_file(const std::string& path, const std::string& content) {
  return durable_io::atomic_write(path, content);
}

std::string result_to_json(const kb::QueryResult& r) {
  core::JsonWriter json;
  json.begin_object();
  json.field("covered", r.covered);
  if (r.covered) {
    json.field("scope", r.scope);
    json.field("entry", r.entry);
    json.field("anomaly_id", r.anomaly_id);
    json.field("dominant", sim::to_string(r.dominant));
    json.field("label", r.label);
    json.key("mfs");
    core::mfs_to_json(r.mfs, &json);
  }
  json.end_object();
  return json.str();
}

std::string query_to_json(const std::string& scope, const Workload& w) {
  core::JsonWriter json;
  json.begin_object();
  json.field("scope", scope);
  json.key("workload");
  core::workload_to_json(w, &json);
  json.end_object();
  return json.str();
}

kb::Query parse_query(const std::string& line) {
  const core::JsonValue doc = core::JsonValue::parse(line);
  kb::Query q;
  q.scope = doc.at("scope").as_string();
  q.workload = core::workload_from_json(doc.at("workload"));
  return q;
}

int build_mode(const std::string& out_path,
               const std::vector<std::string>& checkpoints) {
  if (checkpoints.empty()) {
    std::fprintf(stderr,
                 "usage: kb_server --build OUT ck1.json [ck2.json ...]\n");
    return 2;
  }
  kb::CorpusBuilder builder;
  std::size_t added = 0;
  for (const std::string& path : checkpoints) {
    std::string text;
    if (!read_file(path, &text)) {
      std::fprintf(stderr, "cannot read checkpoint '%s'\n", path.c_str());
      return 2;
    }
    try {
      const orchestrator::CampaignCheckpoint ck =
          orchestrator::CampaignCheckpoint::from_json(text);
      for (const auto& [scope, entries] : ck.scopes) added += entries.size();
      builder.add_checkpoint(ck, path);
    } catch (const core::JsonError& e) {
      std::fprintf(stderr, "bad checkpoint '%s': %s\n", path.c_str(),
                   e.what());
      return 2;
    }
  }
  const kb::Corpus corpus = builder.build();
  if (!write_file(out_path, corpus.to_json() + "\n")) {
    std::fprintf(stderr, "cannot write corpus '%s'\n", out_path.c_str());
    return 2;
  }
  std::printf("built corpus: %zu entries in %zu scopes from %zu MFSes "
              "across %zu checkpoints -> %s\n",
              corpus.size(), corpus.shards.size(), added, checkpoints.size(),
              out_path.c_str());
  return 0;
}

}  // namespace

int run(int argc, char** argv) {
  CliArgs args(argc, argv, {"self-check", "help"});
  if (args.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  args.reject_unknown({"build", "corpus", "self-check", "emit-queries",
                       "queries"});

  if (args.has("build")) {
    return build_mode(args.get("build"), args.positional());
  }

  const std::string corpus_path = args.get("corpus", "");
  if (corpus_path.empty()) {
    std::fprintf(stderr,
                 "usage: kb_server --build OUT CK... | --corpus FILE "
                 "[--queries FILE | --emit-queries FILE | --self-check]\n");
    return 2;
  }
  std::string text;
  if (!read_file(corpus_path, &text)) {
    std::fprintf(stderr, "cannot read corpus '%s'\n", corpus_path.c_str());
    return 2;
  }
  kb::Corpus corpus;
  try {
    corpus = kb::Corpus::from_json(text);
  } catch (const core::JsonError& e) {
    std::fprintf(stderr, "bad corpus '%s': %s\n", corpus_path.c_str(),
                 e.what());
    return 2;
  }
  kb::KnowledgeBase knowledge;
  knowledge.merge(corpus);
  std::fprintf(stderr, "kb: %zu entries in %zu scopes\n", knowledge.size(),
               knowledge.scopes().size());

  if (args.get_bool("self-check", false)) {
    // Every conditioned entry's witness is inside its own region, so it
    // must hit (bare entries match nothing by design and are skipped).
    std::size_t checked = 0;
    std::size_t failed = 0;
    for (const auto& [scope, shard] : corpus.shards) {
      for (const kb::CorpusEntry& e : shard.entries) {
        if (e.mfs.conditions.empty()) continue;
        ++checked;
        const kb::QueryResult r = knowledge.query(scope, e.mfs.witness);
        if (!r.covered) {
          ++failed;
          std::fprintf(stderr, "MISS %s entry %d\n", scope.c_str(),
                       e.mfs.index);
        }
      }
    }
    std::printf("self-check: %zu witnesses, %zu misses\n", checked, failed);
    return failed == 0 ? 0 : 1;
  }

  if (args.has("emit-queries")) {
    std::ostringstream out;
    std::size_t hits = 0;
    for (const auto& [scope, shard] : corpus.shards) {
      for (const kb::CorpusEntry& e : shard.entries) {
        if (e.mfs.conditions.empty()) continue;
        out << query_to_json(scope, e.mfs.witness) << "\n";
        ++hits;
      }
    }
    // Clean misses: a scope the corpus has no knowledge for always answers
    // covered=false (the witnesses themselves are arbitrary workloads).
    std::size_t misses = 0;
    for (const auto& [scope, shard] : corpus.shards) {
      if (shard.entries.empty()) continue;
      out << query_to_json("__unknown__", shard.entries[0].mfs.witness)
          << "\n";
      ++misses;
      break;
    }
    const std::string path = args.get("emit-queries");
    if (!write_file(path, out.str())) {
      std::fprintf(stderr, "cannot write queries '%s'\n", path.c_str());
      return 2;
    }
    std::printf("emitted %zu hit + %zu miss queries to %s\n", hits, misses,
                path.c_str());
    return 0;
  }

  if (args.has("queries")) {
    const std::string path = args.get("queries");
    std::string qtext;
    if (!read_file(path, &qtext)) {
      std::fprintf(stderr, "cannot read queries '%s'\n", path.c_str());
      return 2;
    }
    std::vector<kb::Query> batch;
    std::istringstream lines(qtext);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(lines, line)) {
      ++lineno;
      if (line.empty()) continue;
      try {
        batch.push_back(parse_query(line));
      } catch (const core::JsonError& e) {
        std::fprintf(stderr, "bad query at %s:%zu: %s\n", path.c_str(),
                     lineno, e.what());
        return 2;
      }
    }
    const auto start = std::chrono::steady_clock::now();
    const std::vector<kb::QueryResult> results = knowledge.query_batch(batch);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    for (const kb::QueryResult& r : results) {
      std::printf("%s\n", result_to_json(r).c_str());
    }
    std::fprintf(stderr, "answered %zu queries in %.3f ms (%.0f queries/s)\n",
                 results.size(), seconds * 1e3,
                 seconds > 0.0 ? static_cast<double>(results.size()) / seconds
                               : 0.0);
    return 0;
  }

  // Serve: one query per stdin line, one answer per stdout line.  A
  // malformed line gets an error answer, not a dead server.
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    try {
      const kb::Query q = parse_query(line);
      std::printf("%s\n", result_to_json(knowledge.query(q.scope, q.workload))
                              .c_str());
    } catch (const core::JsonError& e) {
      core::JsonWriter json;
      json.begin_object();
      json.field("covered", false);
      json.field("error", std::string(e.what()));
      json.end_object();
      std::printf("%s\n", json.str().c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
