#include "orchestrator/invocation.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace collie::orchestrator {
namespace {

// The parsed invocation; fails the test (and returns defaults) on an error.
CampaignInvocation ok(const std::vector<std::string>& args) {
  auto parsed = parse_campaign_invocation(args);
  if (const auto* err = std::get_if<InvocationError>(&parsed)) {
    ADD_FAILURE() << "rejected: " << err->message;
    return {};
  }
  return std::get<CampaignInvocation>(parsed);
}

// The error; fails the test unless the invocation is rejected.
InvocationError rejected(const std::vector<std::string>& args) {
  auto parsed = parse_campaign_invocation(args);
  if (const auto* err = std::get_if<InvocationError>(&parsed)) return *err;
  ADD_FAILURE() << "accepted";
  return {};
}

bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

TEST(CampaignInvocation, DefaultsComeFromTheFlagTable) {
  const CampaignInvocation inv = ok({});
  EXPECT_FALSE(inv.help);
  const CampaignConfig& c = inv.config;
  EXPECT_TRUE(c.subsystems.empty());  // the full catalog
  EXPECT_EQ(c.fabrics, std::vector<std::string>{"pair"});
  EXPECT_EQ(c.ccs, std::vector<std::string>{"off"});
  ASSERT_EQ(c.modes.size(), 1u);
  EXPECT_EQ(c.modes[0], core::GuidanceMode::kDiag);
  EXPECT_EQ(c.strategy, Strategy::kSimulatedAnnealing);
  EXPECT_EQ(c.workers, 4);
  EXPECT_EQ(c.seeds_per_cell, 1);
  EXPECT_DOUBLE_EQ(c.budget.seconds, 10 * 3600.0);
  EXPECT_TRUE(c.budget_cycle_seconds.empty());
  EXPECT_EQ(c.schedule, SchedulePolicy::kRoundRobin);
  EXPECT_EQ(c.campaign_seed, 1u);
  EXPECT_EQ(c.share, ShareScope::kSubsystem);
  EXPECT_EQ(c.execution, ExecutionMode::kThreads);
  EXPECT_FALSE(inv.functional);
  EXPECT_EQ(inv.fleet, 0);
  EXPECT_EQ(inv.fleet_options.coordinator.heartbeat_interval.count(), 20);
  EXPECT_EQ(inv.fleet_options.coordinator.heartbeat_timeout.count(), 250);
  EXPECT_EQ(inv.fleet_options.kill_at_cell, "");
  EXPECT_EQ(inv.journal_every, 64);
  EXPECT_EQ(inv.crash_after_probes, 0);
  EXPECT_EQ(inv.crash_at_journal_byte, 0u);
  EXPECT_DOUBLE_EQ(inv.metrics_interval, 0.0);
  EXPECT_TRUE(inv.journal_path.empty());
  EXPECT_TRUE(inv.replay_path.empty());
  EXPECT_FALSE(inv.json || inv.stats || inv.trace_csv || inv.resume);
}

TEST(CampaignInvocation, MapsFlagsOntoTheConfig) {
  const CampaignInvocation inv =
      ok({"--sys", "BF", "--fabric", "hetero,fanin4", "--cc", "all",
          "--modes", "diag,perf", "--strategy", "random", "--hours", "4,1",
          "--schedule", "lpt", "--seed", "7", "--share", "cell", "--exec",
          "deterministic", "--workers", "3", "--json"});
  const CampaignConfig& c = inv.config;
  EXPECT_EQ(c.subsystems, (std::vector<char>{'B', 'F'}));
  EXPECT_EQ(c.fabrics, (std::vector<std::string>{"hetero", "fanin4"}));
  EXPECT_EQ(c.ccs, (std::vector<std::string>{"off", "dcqcn", "mistuned"}));
  ASSERT_EQ(c.modes.size(), 2u);
  EXPECT_EQ(c.modes[1], core::GuidanceMode::kPerf);
  EXPECT_EQ(c.strategy, Strategy::kRandom);
  EXPECT_DOUBLE_EQ(c.budget.seconds, 4 * 3600.0);
  EXPECT_EQ(c.budget_cycle_seconds,
            (std::vector<double>{4 * 3600.0, 1 * 3600.0}));
  EXPECT_EQ(c.schedule, SchedulePolicy::kLpt);
  EXPECT_EQ(c.campaign_seed, 7u);
  EXPECT_EQ(c.share, ShareScope::kCell);
  EXPECT_EQ(c.execution, ExecutionMode::kDeterministic);
  EXPECT_EQ(c.workers, 3);
  EXPECT_TRUE(inv.json);
}

TEST(CampaignInvocation, HelpSkipsValidation) {
  EXPECT_TRUE(ok({"--help", "--no-such-flag"}).help);
  const std::string usage = campaign_usage();
  EXPECT_EQ(usage.rfind("usage: campaign", 0), 0u);
  // Every default is printed from the table.
  EXPECT_TRUE(contains(usage, "--journal-every <n>")) << usage;
  EXPECT_TRUE(contains(usage, "(default 64)")) << usage;
  EXPECT_TRUE(contains(usage, "(default threads)")) << usage;
}

TEST(CampaignInvocation, UnknownAndRemovedFlagsAreRejected) {
  for (const char* flag : {"--worker", "--keep-epochs", "--warm-start-lenient",
                           "--backend", "--steal-after-ms", "--slow-worker"}) {
    const InvocationError err = rejected({flag, "1"});
    EXPECT_EQ(err.exit_code, 2);
    EXPECT_TRUE(contains(err.message, std::string("unknown flag ") + flag))
        << err.message;
  }
  const InvocationError junk = rejected({"--workers", "junk"});
  EXPECT_EQ(junk.exit_code, 2);
  EXPECT_TRUE(contains(junk.message, "--workers")) << junk.message;
  EXPECT_EQ(rejected({"--hours", "0"}).exit_code, 2);
  EXPECT_EQ(rejected({"--hours", "2,x"}).exit_code, 2);
  EXPECT_EQ(rejected({"--fleet", "-1"}).exit_code, 2);
}

// Grid sizes the parser would otherwise narrow or silently replace: each
// exits 2 naming its flag instead of running some other grid.
TEST(CampaignInvocation, OutOfRangeGridSizesAreRejected) {
  struct Case {
    std::vector<std::string> args;
    std::string named;
  };
  const std::vector<Case> cases = {
      {{"--workers", "0"}, "--workers"},
      {{"--workers", "-3"}, "--workers"},
      {{"--workers", "4294967297"}, "--workers"},
      {{"--workers", "2147483648"}, "--workers"},
      {{"--seeds", "0"}, "--seeds"},
      {{"--seeds", "4294967297"}, "--seeds"},
      {{"--fleet", "-1"}, "--fleet"},
      {{"--fleet", "4294967298"}, "--fleet"},
      {{"--sys="}, "--sys"},
      {{"--sys", ""}, "--sys"},
      {{"--hours", "nan"}, "--hours"},
      {{"--hours", "inf"}, "--hours"},
      {{"--hours", "-inf"}, "--hours"},
      {{"--hours", "1e308"}, "--hours"},
      {{"--hours", "8760.5"}, "--hours"},
      {{"--hours", "2,nan"}, "--hours"},
      {{"--hours", "0"}, "--hours"},
      {{"--seed", "-1"}, "--seed"},
      {{"--seed", "-9223372036854775807"}, "--seed"},
      // Fleet timing: a heartbeat cadence and death timeout in [1, 2^31)
      // ms, the timeout above the cadence.
      {{"--fleet", "2", "--heartbeat-ms", "0"}, "--heartbeat-ms"},
      {{"--fleet", "2", "--heartbeat-ms", "-5"}, "--heartbeat-ms"},
      {{"--fleet", "2", "--heartbeat-ms", "2147483648"}, "--heartbeat-ms"},
      {{"--fleet", "2", "--heartbeat-timeout-ms", "0"},
       "--heartbeat-timeout-ms"},
      {{"--fleet", "2", "--heartbeat-timeout-ms", "-1"},
       "--heartbeat-timeout-ms"},
      {{"--fleet", "2", "--heartbeat-timeout-ms", "4294967296"},
       "--heartbeat-timeout-ms"},
      {{"--fleet", "2", "--heartbeat-timeout-ms", "20"},
       "--heartbeat-timeout-ms"},
      {{"--fleet", "2", "--heartbeat-ms", "300"}, "--heartbeat-timeout-ms"},
  };
  for (const Case& c : cases) {
    const InvocationError err = rejected(c.args);
    EXPECT_EQ(err.exit_code, 2) << c.named;
    EXPECT_TRUE(contains(err.message, c.named))
        << c.named << ": " << err.message;
  }
  // The edges of the ranges still parse.
  EXPECT_EQ(ok({"--workers", "1"}).config.workers, 1);
  EXPECT_EQ(ok({"--workers", "2147483647"}).config.workers, 2147483647);
  EXPECT_EQ(ok({"--seeds", "1"}).config.seeds_per_cell, 1);
  EXPECT_EQ(ok({"--fleet", "0"}).fleet, 0);
  EXPECT_EQ(ok({"--hours", "8760"}).config.budget.seconds, 8760 * 3600.0);
  EXPECT_EQ(ok({"--seed", "0"}).config.campaign_seed, 0u);
  EXPECT_EQ(ok({"--seed", "9223372036854775807"}).config.campaign_seed,
            9223372036854775807u);
  const fleet::FleetOptions low =
      ok({"--fleet", "2", "--heartbeat-ms", "1", "--heartbeat-timeout-ms",
          "2"})
          .fleet_options.coordinator;
  EXPECT_EQ(low.heartbeat_interval.count(), 1);
  EXPECT_EQ(low.heartbeat_timeout.count(), 2);
  const fleet::FleetOptions high =
      ok({"--fleet", "2", "--heartbeat-ms", "2147483646",
          "--heartbeat-timeout-ms", "2147483647"})
          .fleet_options.coordinator;
  EXPECT_EQ(high.heartbeat_timeout.count(), 2147483647);
}

// One routine validates every choice flag, and its message names the
// valid values.
TEST(CampaignInvocation, UnknownChoiceNamesTheValidValues) {
  struct Case {
    std::vector<std::string> args;
    std::vector<std::string> named;
  };
  const std::vector<Case> cases = {
      {{"--sys", "BZ"}, {"--sys", "\"Z\"", "A, B"}},
      {{"--fabric", "pair,mesh"}, {"--fabric", "\"mesh\"", "hetero"}},
      {{"--cc", "ecn"}, {"--cc", "dcqcn", "mistuned"}},
      {{"--modes", "diag,all"}, {"--modes", "diag, perf"}},
      {{"--strategy", "bo"}, {"--strategy", "sa, random"}},
      {{"--schedule", "fifo"}, {"--schedule", "rr, lpt"}},
      {{"--share", "galaxy"}, {"--share", "subsystem, cell"}},
      {{"--exec", "fast"}, {"--exec", "threads, deterministic"}},
  };
  for (const Case& c : cases) {
    const InvocationError err = rejected(c.args);
    EXPECT_EQ(err.exit_code, 2) << c.args[0];
    for (const std::string& part : c.named) {
      EXPECT_TRUE(contains(err.message, part))
          << c.args[0] << ": " << err.message;
    }
  }
}

// A table boolean never consumes the token after it.
TEST(CampaignInvocation, BooleansNeverConsumeTheNextToken) {
  const CampaignInvocation inv = ok({"--resume", "stray", "--journal", "j",
                                     "--functional", "--stats", "x"});
  EXPECT_TRUE(inv.resume);
  EXPECT_EQ(inv.journal_path, "j");
  EXPECT_TRUE(inv.functional);
  EXPECT_TRUE(inv.stats);
  EXPECT_FALSE(ok({"--json=no"}).json);
}

TEST(CampaignInvocation, ReplayExcludesJournalResumeAndFleet) {
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{"--journal", "j"},
        std::vector<std::string>{"--journal", "j", "--resume"},
        std::vector<std::string>{"--fleet", "2"}}) {
    std::vector<std::string> args = {"--replay", "r.journal"};
    args.insert(args.end(), extra.begin(), extra.end());
    const InvocationError err = rejected(args);
    EXPECT_EQ(err.exit_code, 2);
    EXPECT_TRUE(contains(err.message, "--replay")) << err.message;
  }
  EXPECT_EQ(ok({"--replay", "r.journal"}).replay_path, "r.journal");
}

TEST(CampaignInvocation, ResumeAndCrashInjectionNeedAJournal) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--resume"},
        std::vector<std::string>{"--crash-after-probes", "5"},
        std::vector<std::string>{"--crash-at-journal-byte", "100"}}) {
    const InvocationError err = rejected(args);
    EXPECT_EQ(err.exit_code, 2) << args[0];
    EXPECT_TRUE(contains(err.message, "--journal")) << err.message;
  }
  const CampaignInvocation inv =
      ok({"--journal", "j", "--crash-after-probes", "5",
          "--crash-at-journal-byte", "100", "--journal-every", "8"});
  EXPECT_EQ(inv.crash_after_probes, 5);
  EXPECT_EQ(inv.crash_at_journal_byte, 100u);
  EXPECT_EQ(inv.journal_every, 8);
  EXPECT_EQ(rejected({"--journal", "j", "--journal-every", "0"}).exit_code, 2);
  // Values that would wrap instead of meaning anything.
  EXPECT_EQ(
      rejected({"--journal", "j", "--journal-every", "4294967296"}).exit_code,
      2);
  EXPECT_EQ(rejected({"--crash-at-journal-byte", "-5"}).exit_code, 2);
  EXPECT_EQ(
      rejected({"--journal", "j", "--crash-after-probes", "-1"}).exit_code, 2);
}

TEST(CampaignInvocation, MetricsIntervalTakesFractionalSecondsAndAFile) {
  const InvocationError err = rejected({"--metrics-interval", "1"});
  EXPECT_EQ(err.exit_code, 2);
  EXPECT_TRUE(contains(err.message, "--metrics-out")) << err.message;
  EXPECT_EQ(
      rejected({"--metrics-out", "m.json", "--metrics-interval", "-1"})
          .exit_code,
      2);
  const CampaignInvocation inv =
      ok({"--metrics-out", "m.json", "--metrics-interval", "0.5"});
  EXPECT_EQ(inv.metrics_path, "m.json");
  EXPECT_DOUBLE_EQ(inv.metrics_interval, 0.5);
}

TEST(CampaignInvocation, FleetOnlyFlagsNeedAFleet) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--kill-worker", "B/Diag#0"},
        std::vector<std::string>{"--heartbeat-ms", "5"},
        std::vector<std::string>{"--heartbeat-timeout-ms", "1000"}}) {
    const InvocationError err = rejected(args);
    EXPECT_EQ(err.exit_code, 2) << args[0];
    EXPECT_TRUE(contains(err.message, args[0])) << err.message;
    EXPECT_TRUE(contains(err.message, "--fleet")) << err.message;
  }
  // --kill-worker names a cell, not an executor.
  EXPECT_EQ(rejected({"--fleet", "2", "--kill-worker="}).exit_code, 2);

  const CampaignInvocation inv =
      ok({"--fleet", "2", "--kill-worker", "B@hetero/Diag#0",
          "--heartbeat-timeout-ms", "1000"});
  EXPECT_EQ(inv.fleet, 2);
  EXPECT_EQ(inv.config.workers, 2);  // the fleet size is the worker count
  EXPECT_EQ(inv.fleet_options.kill_at_cell, "B@hetero/Diag#0");
  EXPECT_EQ(inv.fleet_options.coordinator.heartbeat_timeout.count(), 1000);
}

}  // namespace
}  // namespace collie::orchestrator
