#include "common/cli.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

#include "common/strings.h"

namespace collie {

namespace {

constexpr std::size_t kHelpColumn = 21;  // where help text starts
constexpr std::size_t kHelpWidth = 78;   // wrap help text before this

i64 parse_int(const std::string& name, const std::string& text) {
  // A null endptr here once made "--workers junk" silently 0 and
  // "--hours 8x" silently 8: parse strictly, whole token, and name the
  // offending flag.
  errno = 0;
  char* end = nullptr;
  const i64 value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::invalid_argument("--" + name + ": expected an integer, got \"" +
                                text + "\"");
  }
  return value;
}

double parse_double(const std::string& name, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::invalid_argument("--" + name + ": expected a number, got \"" +
                                text + "\"");
  }
  return value;
}

bool parse_bool(const std::string& name, const std::string& text) {
  const std::string v = to_lower(text);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("--" + name + ": expected a boolean, got \"" +
                              text + "\"");
}

}  // namespace

std::string cli_usage(const std::string& header, CliTable table) {
  std::string out = header + "\nFlags:\n";
  for (const CliFlag& flag : table) {
    std::string line = std::string("  --") + flag.name;
    if (flag.value != nullptr) line += std::string(" ") + flag.value;
    std::string help = flag.help;
    if (flag.default_value != nullptr) {
      help += std::string(" (default ") + flag.default_value + ")";
    }
    // Word-wrap the help text into the column right of the flag; a flag
    // too wide for the left column starts its help on the next line.
    if (line.size() + 1 >= kHelpColumn) {
      out += line + "\n";
      line.clear();
    }
    for (const std::string& word : split(help, ' ')) {
      if (word.empty()) continue;
      const bool fresh = line.size() <= kHelpColumn;
      if (!fresh && line.size() + 1 + word.size() > kHelpWidth) {
        out += line + "\n";
        line.clear();
      }
      if (line.size() < kHelpColumn) {
        line.resize(kHelpColumn, ' ');
      } else {
        line += ' ';
      }
      line += word;
    }
    out += line + "\n";
  }
  return out;
}

void check_choice(const std::string& flag, const std::string& value,
                  const std::vector<std::string>& valid) {
  if (std::find(valid.begin(), valid.end(), value) != valid.end()) return;
  throw std::invalid_argument("--" + flag + ": unknown value \"" + value +
                              "\" (valid: " + join(valid, ", ") + ")");
}

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::vector<std::string>& boolean_flags) {
  parse(argc, argv, boolean_flags);
}

CliArgs::CliArgs(int argc, const char* const* argv, CliTable table)
    : table_(table) {
  std::vector<std::string> booleans;
  for (const CliFlag& flag : table_) {
    if (flag.value == nullptr) booleans.emplace_back(flag.name);
  }
  parse(argc, argv, booleans);
}

void CliArgs::parse(int argc, const char* const* argv,
                    const std::vector<std::string>& boolean_flags) {
  const auto is_boolean = [&boolean_flags](const std::string& name) {
    return std::find(boolean_flags.begin(), boolean_flags.end(), name) !=
           boolean_flags.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (!is_boolean(arg) && i + 1 < argc &&
               !starts_with(argv[i + 1], "--")) {
      // A registered boolean never consumes the next token: before this
      // guard, "campaign --stats report.json" parsed as stats=report.json
      // (get_bool silently false) and the positional vanished.
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

const CliFlag& CliArgs::row(const std::string& name) const {
  for (const CliFlag& flag : table_) {
    if (name == flag.name) return flag;
  }
  throw std::logic_error("--" + name + " is not in the flag table");
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& default_value) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

i64 CliArgs::get_int(const std::string& name, i64 default_value) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? default_value : parse_int(name, it->second);
}

double CliArgs::get_double(const std::string& name,
                           double default_value) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? default_value : parse_double(name, it->second);
}

bool CliArgs::get_bool(const std::string& name, bool default_value) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? default_value : parse_bool(name, it->second);
}

std::string CliArgs::get(const std::string& name) const {
  const char* fallback = table_.empty() ? nullptr : row(name).default_value;
  const auto it = flags_.find(name);
  if (it != flags_.end()) return it->second;
  return fallback == nullptr ? "" : fallback;
}

i64 CliArgs::get_int(const std::string& name) const {
  return parse_int(name, get(name));
}

double CliArgs::get_double(const std::string& name) const {
  return parse_double(name, get(name));
}

bool CliArgs::get_bool(const std::string& name) const {
  (void)row(name);  // booleans carry no default: only check the name
  return get_bool(name, false);
}

std::string CliArgs::get_choice(const std::string& name,
                                const std::vector<std::string>& valid) const {
  std::string value = get(name);
  check_choice(name, value, valid);
  return value;
}

std::vector<std::string> CliArgs::get_choices(
    const std::string& name, const std::vector<std::string>& valid,
    bool all_keyword) const {
  const std::string value = get(name);
  if (all_keyword && value == "all") return valid;
  std::vector<std::string> out = split(value, ',');
  for (const std::string& v : out) check_choice(name, v, valid);
  return out;
}

void CliArgs::reject_unknown(const std::vector<std::string>& allowed) const {
  for (const auto& [name, value] : flags_) {
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      throw std::invalid_argument("unknown flag --" + name);
    }
  }
}

void CliArgs::reject_unknown() const {
  std::vector<std::string> names;
  for (const CliFlag& flag : table_) names.emplace_back(flag.name);
  reject_unknown(names);
}

}  // namespace collie
