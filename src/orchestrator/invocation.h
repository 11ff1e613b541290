// The campaign CLI's invocation: its flag table and every rule relating one
// flag to another, as pure functions of the argument list.  The
// examples/campaign.cpp program only reads the files an invocation names,
// runs the campaign and writes its outputs.
#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "fleet/fleet.h"
#include "orchestrator/campaign.h"

namespace collie::orchestrator {

struct JournalRecovery;  // orchestrator/journal.h

struct CampaignInvocation {
  bool help = false;  // --help: print campaign_usage() and exit 0
  CampaignConfig config;
  int fleet = 0;  // --fleet n: loopback fleet workers (0: in-process)
  fleet::FleetRunOptions fleet_options;
  std::string warm_start_path;
  std::string checkpoint_path;
  std::string replay_path;
  std::string journal_path;
  bool resume = false;
  int journal_every = 0;
  i64 crash_after_probes = 0;
  u64 crash_at_journal_byte = 0;
  std::string metrics_path;
  double metrics_interval = 0.0;  // seconds of wall time; 0: final only
  bool stats = false;
  bool functional = false;  // --functional: audit the reported witnesses
  bool json = false;
  bool trace_csv = false;
};

// Why an invocation cannot run, and the process exit code that says so.
struct InvocationError {
  int exit_code = 2;
  std::string message;
};

// Parse the campaign CLI's arguments (argv without the program name).
// Unknown flags, malformed values, unknown choice values and conflicting
// flag combinations are errors with exit code 2.
std::variant<CampaignInvocation, InvocationError> parse_campaign_invocation(
    const std::vector<std::string>& args);

// The --help text.
std::string campaign_usage();

// --resume / --replay (`flag`): parse the journal recovered from `path`
// into `out`, check it against `config` and wire it in: the journaled
// schedule is re-dispatched, a replay answers every probe from `out`, and
// a resume restores completed cells and splices the in-flight ones.  The
// journaled share, strategy and seed must match the config: contradicting
// flags would silently continue a different campaign.  `out` must outlive
// the campaign.
std::optional<InvocationError> adopt_journal(const std::string& flag,
                                             const std::string& path,
                                             const JournalRecovery& rec,
                                             CampaignConfig* config,
                                             JournalResume* out);

}  // namespace collie::orchestrator
