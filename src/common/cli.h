// Tiny command line flag parser for examples and bench harnesses.
// Supports "--name=value" and "--name value"; anything else is positional.
//
// Flags named in `boolean_flags` never consume the following token as a
// value ("campaign --stats report.json" keeps report.json positional); pass
// "--flag=value" to give a registered boolean an explicit value.
//
// A command with a flag table (CliFlag below) writes each flag once: the
// table drives --help (cli_usage), boolean registration, unknown-flag
// rejection and the getters' defaults.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"

namespace collie {

// One row of a command's flag table.
struct CliFlag {
  const char* name;           // without the leading "--"
  const char* value;          // --help placeholder ("<n>"); nullptr: boolean
  const char* default_value;  // as typed on the command line; nullptr: none
  const char* help;
};
using CliTable = std::span<const CliFlag>;

// --help text: `header` (usage line, examples), then every row of the
// table with its help wrapped and its default appended.
std::string cli_usage(const std::string& header, CliTable table);

// Throws std::invalid_argument naming --flag and every valid value unless
// `value` is one of `valid`.
void check_choice(const std::string& flag, const std::string& value,
                  const std::vector<std::string>& valid);

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv,
          const std::vector<std::string>& boolean_flags = {});
  // Table-driven: the table's booleans never consume the next token,
  // reject_unknown() accepts exactly its names, and the one-argument
  // getters fall back to its defaults.  `table` must outlive this object.
  CliArgs(int argc, const char* const* argv, CliTable table);

  bool has(const std::string& name) const;
  std::string get(const std::string& name,
                  const std::string& default_value) const;
  // Numeric getters parse the whole token strictly and throw
  // std::invalid_argument naming the flag on junk or out-of-range input
  // ("--workers junk" must fail loudly, not silently become 0).
  i64 get_int(const std::string& name, i64 default_value) const;
  double get_double(const std::string& name, double default_value) const;
  // Accepts {1,0,true,false,yes,no,on,off} case-insensitively; anything
  // else ("--stats tru") throws naming the flag instead of silently
  // reading as false.
  bool get_bool(const std::string& name, bool default_value) const;

  // One-argument getters: the flag's value, else the table's default
  // (get: "" without one).  Reading a name the table does not list throws
  // std::logic_error, so a getter cannot drift from the table.
  std::string get(const std::string& name) const;
  i64 get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  // A choice flag: the value must be one of `valid`.
  std::string get_choice(const std::string& name,
                         const std::vector<std::string>& valid) const;
  // A comma list of choices; with `all_keyword`, "all" selects `valid`.
  std::vector<std::string> get_choices(const std::string& name,
                                       const std::vector<std::string>& valid,
                                       bool all_keyword) const;

  // Throws std::invalid_argument naming the first flag not in `allowed`,
  // so a typo ("--worker 4") fails loudly instead of silently running
  // with defaults.
  void reject_unknown(const std::vector<std::string>& allowed) const;
  // The same against the table's names.
  void reject_unknown() const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  void parse(int argc, const char* const* argv,
             const std::vector<std::string>& boolean_flags);
  const CliFlag& row(const std::string& name) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  CliTable table_;
};

}  // namespace collie
