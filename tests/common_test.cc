#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include "common/cli.h"
#include "common/counter_stream.h"
#include "common/log.h"
#include "common/pmath.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/units.h"

namespace collie {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<i64> seen;
  for (int i = 0; i < 1000; ++i) {
    const i64 v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(Rng, LogUniformCoversDecades) {
  Rng rng(11);
  int low = 0;
  int high = 0;
  for (int i = 0; i < 2000; ++i) {
    const i64 v = rng.log_uniform_int(1, 10000);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 10000);
    if (v <= 10) ++low;
    if (v > 1000) ++high;
  }
  // Log-uniform: each decade gets a similar share.
  EXPECT_GT(low, 200);
  EXPECT_GT(high, 200);
}

// ---- Counter-stream normal generator --------------------------------------

// Over 10^6 draws the ziggurat matches N(0, 1): moments within about five
// standard errors and a Kolmogorov-Smirnov distance below the 0.1%
// critical value (1.95 / sqrt(n)).  The tail path (|x| beyond the base
// layer's edge r) must fire at the Gaussian rate 2 (1 - Phi(r)).
TEST(CounterStream, NormalMatchesStandardNormal) {
  constexpr int kN = 1000000;
  const CounterStream stream(0x5eedf00dcafe1234ULL);
  std::vector<double> xs(kN);
  double m1 = 0.0;
  for (int i = 0; i < kN; ++i) {
    xs[static_cast<std::size_t>(i)] = stream.normal(static_cast<u64>(i));
    m1 += xs[static_cast<std::size_t>(i)];
  }
  m1 /= kN;
  double m2 = 0.0;
  double m3 = 0.0;
  double m4 = 0.0;
  int tail = 0;
  for (const double x : xs) {
    const double d = x - m1;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
    if (std::fabs(x) > zig::kX[1]) ++tail;
  }
  m2 /= kN;
  m3 /= kN;
  m4 /= kN;
  EXPECT_NEAR(m1, 0.0, 0.005);
  EXPECT_NEAR(m2, 1.0, 0.007);
  EXPECT_NEAR(m3 / std::pow(m2, 1.5), 0.0, 0.012);
  EXPECT_NEAR(m4 / (m2 * m2), 3.0, 0.025);
  const double tail_rate = std::erfc(zig::kX[1] / std::sqrt(2.0));
  EXPECT_NEAR(tail, kN * tail_rate, 5.0 * std::sqrt(kN * tail_rate));

  std::sort(xs.begin(), xs.end());
  double ks = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double phi =
        0.5 * std::erfc(-xs[static_cast<std::size_t>(i)] / std::sqrt(2.0));
    ks = std::max({ks, std::fabs(phi - static_cast<double>(i) / kN),
                   std::fabs(static_cast<double>(i + 1) / kN - phi)});
  }
  EXPECT_LT(ks, 1.95 / std::sqrt(static_cast<double>(kN)));
}

// The first 16 outputs for a fixed key, plus one wedge and one tail draw
// (both through pmath's exp/ln), pinned bit for bit: any host, compiler
// or flag change that moves a bit of the jitter stream fails here first.
TEST(CounterStream, PinnedOutputsForFixedKey) {
  const CounterStream stream(0x0123456789abcdefULL);
  const double kFirst16[] = {
      0x1.ccc1fb37cf011p-4,  0x1.1583e19ef4473p-1,  -0x1.1ec7818f48149p+0,
      0x1.58e442410dcadp+0,  -0x1.aca799fb22421p-1, 0x1.647173600397ep+0,
      -0x1.360e3181a2c91p+0, -0x1.a0cf6da73a433p-3, 0x1.1be1a4c6bb53ep-2,
      -0x1.0e92eb7f6affcp+0, -0x1.260975099acap-1,  0x1.8739f9b5b0902p-1,
      -0x1.bd33a3ea8afeep-5, -0x1.2f83305203d3ep-2, -0x1.8009067be1p+0,
      -0x1.7c75a9d6af2cfp-1,
  };
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(stream.normal(static_cast<u64>(i)), kFirst16[i]) << "draw " << i;
  }
  EXPECT_EQ(stream.normal(49), 0x1.ff855c074afd4p-5);     // wedge
  EXPECT_EQ(stream.normal(5400), -0x1.0f15c2e86ec49p+2);  // tail
}

TEST(CounterStream, DrawsArePureFunctionsOfKeyAndIndex) {
  const CounterStream a(42);
  const CounterStream b(42);
  std::vector<double> forward;
  for (u64 i = 0; i < 64; ++i) forward.push_back(a.normal(i));
  for (u64 i = 64; i-- > 0;) EXPECT_EQ(b.normal(i), forward[i]);
  const CounterStream other(43);
  int equal = 0;
  for (u64 i = 0; i < 64; ++i) {
    if (other.normal(i) == forward[i]) ++equal;
  }
  EXPECT_EQ(equal, 0);
  for (u64 i = 0; i < 1000; ++i) {
    const double u = a.uniform(i);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// The committed hexfloat tables satisfy the ziggurat recurrence (the
// generator script's construction), re-derived here with libm.
TEST(CounterStream, ZigguratTablesSatisfyTheRecurrence) {
  const auto f = [](double x) { return std::exp(-0.5 * x * x); };
  const double r = zig::kX[1];
  const double v = r * f(r) + std::sqrt(std::acos(-1.0) / 2.0) *
                                  std::erfc(r / std::sqrt(2.0));
  EXPECT_NEAR(zig::kX[0], v / f(r), 1e-13);
  for (int i = 1; i < 255; ++i) {
    // Every layer has area v.
    EXPECT_NEAR(zig::kX[i] * (f(zig::kX[i + 1]) - f(zig::kX[i])), v, 1e-13)
        << "layer " << i;
    EXPECT_GT(zig::kX[i], zig::kX[i + 1]);
  }
  EXPECT_NEAR(zig::kX[255] * (1.0 - f(zig::kX[255])), v, 1e-13);
  EXPECT_EQ(zig::kX[256], 0.0);
  for (int i = 0; i < 256; ++i) {
    EXPECT_NEAR(zig::kF[i], f(zig::kX[i]), 1e-15) << "layer " << i;
  }
  EXPECT_EQ(zig::kF[256], 1.0);
}

// ---- Portable math ----------------------------------------------------------

TEST(Pmath, AgreesWithLibmToAFewUlps) {
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const double x = std::ldexp(1.0 + rng.uniform(),
                                static_cast<int>(rng.uniform_int(-1070, 1020)));
    EXPECT_NEAR(pmath::ln(x), std::log(x),
                4e-16 * std::fabs(std::log(x)) + 1e-300)
        << std::hexfloat << x;
    EXPECT_NEAR(pmath::log2(x), std::log2(x),
                4e-16 * std::fabs(std::log2(x)) + 1e-300)
        << std::hexfloat << x;
    const double y = rng.uniform(-700.0, 709.0);  // normal results
    EXPECT_NEAR(pmath::exp(y), std::exp(y), 4e-16 * std::exp(y))
        << std::hexfloat << y;
    const double base = rng.uniform(1e-6, 1.0);
    EXPECT_NEAR(pmath::pow(base, 1.2), std::pow(base, 1.2),
                4e-15 * std::pow(base, 1.2))
        << std::hexfloat << base;
  }
  // Subnormal inputs reduce into the normal range first.
  EXPECT_NEAR(pmath::ln(0x1p-1070), std::log(0x1p-1070), 1e-12);
}

// Every output bit of ln/exp/pow over a fixed input grid, folded into one
// pinned word.  A host, compiler or flag change that moves any of them
// fails here: a build that lets the compiler fuse a*b+c into an FMA
// (-ffp-contract=fast on an FMA target) changes this word.
TEST(Pmath, OutputsArePinnedBitForBit) {
  u64 h = 0;
  for (int i = 1; i <= 10000; ++i) {
    const double x = 0.005 * i;   // (0, 50]
    const double y = 0.008 * i;   // (0, 80]
    const double u = 0.0001 * i;  // (0, 1]
    for (const double v : {pmath::ln(x), pmath::exp(y), pmath::exp(-y),
                           pmath::log2(x), pmath::pow(u, 1.2)}) {
      h = (h ^ std::bit_cast<u64>(v)) * 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(h, 0x71c1051b4e7150a9ULL) << std::hex << h;
}

TEST(Pmath, ExactWhereTheModelNeedsIt) {
  for (int k = -1074; k <= 1023; ++k) {
    EXPECT_EQ(pmath::log2(std::ldexp(1.0, k)), static_cast<double>(k)) << k;
  }
  EXPECT_EQ(pmath::ln(1.0), 0.0);
  EXPECT_EQ(pmath::exp(0.0), 1.0);
  for (const double x : {1e-9, 0.3, 0.999999, 1.0}) {
    EXPECT_EQ(pmath::pow(x, 1.0), x);
  }
  EXPECT_EQ(pmath::exp(-800.0), 0.0);
  EXPECT_TRUE(std::isinf(pmath::exp(710.0)));
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(13);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) {
    counts[rng.weighted_index({1.0, 0.0, 3.0})]++;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0]);
}

TEST(RunningStat, BasicMoments) {
  RunningStat rs;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(v);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.stddev(), 2.138, 1e-3);
  EXPECT_EQ(rs.min(), 2.0);
  EXPECT_EQ(rs.max(), 9.0);
}

TEST(RunningStat, CovZeroMean) {
  RunningStat rs;
  rs.add(0.0);
  rs.add(0.0);
  EXPECT_EQ(rs.cov(), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(64), "64B");
  EXPECT_EQ(format_bytes(2 * KiB), "2KB");
  EXPECT_EQ(format_bytes(4 * MiB), "4MB");
  EXPECT_EQ(format_bytes(1536), "1536B");
}

TEST(Units, RateConversions) {
  EXPECT_DOUBLE_EQ(gbps(100), 100e9);
  EXPECT_DOUBLE_EQ(to_gbps(gbps(25)), 25.0);
  EXPECT_DOUBLE_EQ(bytes_per_sec(8e9), 1e9);
}

TEST(Table, AlignsColumns) {
  TextTable t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  const std::string out = t.render();
  EXPECT_NE(out.find("a   bbbb"), std::string::npos);
  EXPECT_NE(out.find("xx  y"), std::string::npos);
}

TEST(Table, PercentFormat) {
  EXPECT_EQ(fmt_percent(0.1234, 1), "12.3%");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

TEST(Strings, SplitJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"x", "y"}, "-"), "x-y");
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(Cli, ParsesFlagsAndPositional) {
  const char* argv[] = {"prog", "--alpha=3", "--name", "collie", "pos",
                        "--flag"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get("name"), "collie");
  EXPECT_TRUE(args.get_bool("flag", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
  EXPECT_EQ(args.get_double("missing", 2.5), 2.5);
}

// Regression: get_int/get_double used atoll/atof-style parsing with a null
// endptr, so "--workers junk" silently became 0 workers and "--hours 8x"
// quietly dropped the suffix.  Numeric flags must parse the whole token or
// fail loudly, naming the flag.
TEST(Cli, JunkNumericFlagsFailLoudly) {
  const char* argv[] = {"prog",    "--workers", "junk", "--hours", "8x",
                        "--ratio", "1.5.2",     "--empty=",  "--trail", "4 "};
  CliArgs args(10, argv);
  try {
    (void)args.get_int("workers", 1);
    FAIL() << "--workers junk parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--workers"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("junk"), std::string::npos);
  }
  EXPECT_THROW((void)args.get_int("hours", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("hours", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("ratio", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("empty", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("empty", 0.0), std::invalid_argument);
  // Tokens with trailing junk after a valid prefix are rejected too.
  EXPECT_THROW((void)args.get_int("trail", 0), std::invalid_argument);
}

TEST(Cli, ValidNumericFlagsStillParse) {
  const char* argv[] = {"prog",     "--workers", "8",     "--hours",
                        "2.5",      "--neg=-3",  "--exp", "1e3"};
  CliArgs args(8, argv);
  EXPECT_EQ(args.get_int("workers", 1), 8);
  EXPECT_DOUBLE_EQ(args.get_double("hours", 0.0), 2.5);
  EXPECT_EQ(args.get_int("neg", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("exp", 0.0), 1000.0);
  // Absent flags keep returning their defaults without touching strtoll.
  EXPECT_EQ(args.get_int("absent", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 0.25), 0.25);
}

TEST(Cli, OutOfRangeNumericFlagsAreRejected) {
  const char* argv[] = {"prog", "--big", "999999999999999999999999",
                        "--huge", "1e999"};
  CliArgs args(5, argv);
  EXPECT_THROW((void)args.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("huge", 0.0), std::invalid_argument);
}

// Regression: a valueless --flag before a positional swallowed the next
// token.  "campaign --stats report.json" parsed as stats=report.json —
// get_bool("stats") was silently false AND the positional vanished.
// Registering the flag as boolean keeps it from consuming the token.
TEST(Cli, RegisteredBooleanDoesNotSwallowPositional) {
  const char* argv[] = {"prog", "--stats", "report.json"};
  CliArgs args(3, argv, {"stats"});
  EXPECT_TRUE(args.get_bool("stats", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "report.json");
}

// Unregistered flags keep the historical value-consuming behaviour.
TEST(Cli, UnregisteredFlagStillConsumesValue) {
  const char* argv[] = {"prog", "--name", "collie"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.get("name"), "collie");
  EXPECT_TRUE(args.positional().empty());
}

// The = form gives a registered boolean an explicit value.
TEST(Cli, BooleanEqualsFormCarriesExplicitValue) {
  const char* argv[] = {"prog", "--stats=no", "--json=ON", "out.json"};
  CliArgs args(4, argv, {"stats", "json"});
  EXPECT_FALSE(args.get_bool("stats", true));
  EXPECT_TRUE(args.get_bool("json", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "out.json");
}

// Regression: get_bool treated anything but "1"/"true" as false, so
// "--stats report.json" (the swallowed positional above) and typos like
// "--json ture" silently disabled the feature.  Now only the accepted
// spellings parse; everything else throws naming the flag.
TEST(Cli, StrictBoolAcceptsKnownSpellingsOnly) {
  const char* argv[] = {"prog",      "--a=1",   "--b=true", "--c=YES",
                        "--d=on",    "--e=0",   "--f=False", "--g=no",
                        "--h=off"};
  CliArgs args(9, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_TRUE(args.get_bool("b", false));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_TRUE(args.get_bool("d", false));
  EXPECT_FALSE(args.get_bool("e", true));
  EXPECT_FALSE(args.get_bool("f", true));
  EXPECT_FALSE(args.get_bool("g", true));
  EXPECT_FALSE(args.get_bool("h", true));

  const char* bad[] = {"prog", "--stats", "report.json"};
  CliArgs junk(3, bad);  // NOT registered boolean: swallows the token
  try {
    (void)junk.get_bool("stats", false);
    FAIL() << "--stats report.json parsed as a boolean";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--stats"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("report.json"), std::string::npos);
  }
}

// A typo'd flag must fail loudly instead of being silently ignored.
TEST(Cli, RejectUnknownCatchesTypos) {
  const char* argv[] = {"prog", "--worker", "4"};  // typo: --workers
  CliArgs args(3, argv);
  try {
    args.reject_unknown({"workers", "hours", "json"});
    FAIL() << "--worker accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--worker"), std::string::npos);
  }
  // The full allowed set passes.
  const char* ok[] = {"prog", "--workers", "4", "--json=1"};
  CliArgs good(4, ok);
  EXPECT_NO_THROW(good.reject_unknown({"workers", "json"}));
}

// A flag table drives boolean registration, unknown-flag rejection and
// the one-argument getters' defaults.
constexpr CliFlag kTestFlags[] = {
    {"workers", "<n>", "4", "fleet size"},
    {"mode", "<m>", "diag", "diag | perf"},
    {"list", "<l>", "a,b", "comma list"},
    {"path", "<f>", nullptr, "an output file"},
    {"stats", nullptr, nullptr, "print the telemetry table"},
};

TEST(Cli, TableSuppliesDefaultsAndBooleans) {
  const char* argv[] = {"prog", "--stats", "report.json", "--workers", "8"};
  CliArgs args(5, argv, kTestFlags);
  EXPECT_NO_THROW(args.reject_unknown());
  EXPECT_TRUE(args.get_bool("stats"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.get_int("workers"), 8);
  EXPECT_EQ(args.get("mode"), "diag");
  EXPECT_EQ(args.get("path"), "");
  EXPECT_EQ(args.get_choice("mode", {"diag", "perf"}), "diag");
  EXPECT_EQ(args.get_choices("list", {"a", "b", "c"}, false),
            (std::vector<std::string>{"a", "b"}));
  // A getter of a name the table does not list is a programming error.
  EXPECT_THROW((void)args.get("worker"), std::logic_error);
  EXPECT_THROW((void)args.get_bool("json"), std::logic_error);

  const char* typo[] = {"prog", "--worker", "4"};
  EXPECT_THROW(CliArgs(3, typo, kTestFlags).reject_unknown(),
               std::invalid_argument);
}

TEST(Cli, ChoiceErrorsNameEveryValidValue) {
  const char* argv[] = {"prog", "--mode", "fast", "--list", "all"};
  CliArgs args(5, argv, kTestFlags);
  try {
    (void)args.get_choice("mode", {"diag", "perf"});
    FAIL() << "--mode fast accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--mode: unknown value \"fast\" (valid: diag, perf)");
  }
  EXPECT_EQ(args.get_choices("list", {"a", "b", "c"}, true),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_THROW((void)args.get_choices("list", {"a", "b"}, false),
               std::invalid_argument);
}

TEST(Cli, UsageRendersEveryRowWithItsDefault) {
  const std::string usage = cli_usage("usage: prog\n", kTestFlags);
  EXPECT_EQ(usage.rfind("usage: prog\n\nFlags:\n", 0), 0u) << usage;
  EXPECT_NE(usage.find("  --workers <n>      fleet size (default 4)\n"),
            std::string::npos)
      << usage;
  EXPECT_NE(usage.find("  --stats            print the telemetry table\n"),
            std::string::npos)
      << usage;
  for (const CliFlag& flag : kTestFlags) {
    EXPECT_NE(usage.find(std::string("--") + flag.name), std::string::npos);
  }
  // Long help wraps into the help column, never past 78 characters.
  const CliFlag wide[] = {
      {"a-rather-long-flag-name", "<value>", "7",
       "word word word word word word word word word word word word word "
       "word word word word word word word word word word word word"}};
  const std::string wrapped = cli_usage("usage: prog\n", wide);
  for (const std::string& line : split(wrapped, '\n')) {
    EXPECT_LE(line.size(), 78u) << line;
  }
  EXPECT_NE(wrapped.find("\n  --a-rather-long-flag-name <value>\n" +
                         std::string(21, ' ') + "word"),
            std::string::npos)
      << wrapped;
}

// Restores the global threshold on scope exit so a failing assertion can't
// leak a kDebug level into later tests.
struct ScopedLogLevel {
  explicit ScopedLogLevel(LogLevel level) : saved(log_level()) {
    set_log_level(level);
  }
  ~ScopedLogLevel() { set_log_level(saved); }
  LogLevel saved;
};

TEST(Log, SuppressedLineDoesNotEvaluateArguments) {
  // Regression: COLLIE_LOG used to build the full LogLine (evaluating every
  // streamed argument) and only then drop the message in emit().  The macro
  // must short-circuit on the level check instead.
  ScopedLogLevel scope(LogLevel::kWarn);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("payload");
  };
  LOG_DEBUG << "dropped " << expensive();
  LOG_INFO << "dropped " << expensive();
  EXPECT_EQ(evaluations, 0);
  LOG_WARN << "kept " << expensive();
  LOG_ERROR << "kept " << expensive();
  EXPECT_EQ(evaluations, 2);
}

TEST(Log, MacroNestsInUnbracedIfElse) {
  ScopedLogLevel scope(LogLevel::kError);
  bool else_taken = false;
  if (false)
    LOG_INFO << "then-branch";
  else
    else_taken = true;
  EXPECT_TRUE(else_taken);
}

}  // namespace
}  // namespace collie
