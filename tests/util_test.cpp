#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/fileio.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace rr {
namespace {

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

TEST(Units, DurationConversionsRoundTrip) {
  const Duration d = Duration::microseconds(3.19);
  EXPECT_EQ(d.ps(), 3'190'000);
  EXPECT_DOUBLE_EQ(d.us(), 3.19);
  EXPECT_DOUBLE_EQ(d.ns(), 3190.0);
}

TEST(Units, DurationArithmeticIsExact) {
  const Duration a = Duration::nanoseconds(220);
  EXPECT_EQ((a * 7).ps(), 220'000 * 7);
  EXPECT_EQ((a + a - a).ps(), a.ps());
}

TEST(Units, DurationComparisons) {
  EXPECT_LT(Duration::nanoseconds(1), Duration::microseconds(1));
  EXPECT_EQ(Duration::microseconds(1), Duration::nanoseconds(1000));
  EXPECT_GT(Duration::seconds(1), Duration::milliseconds(999));
}

TEST(Units, TimePointDifferenceIsDuration) {
  const TimePoint t0 = TimePoint::origin();
  const TimePoint t1 = t0 + Duration::microseconds(5);
  EXPECT_EQ((t1 - t0).us(), 5.0);
}

TEST(Units, BandwidthAndTransferTime) {
  const Bandwidth bw = Bandwidth::gb_per_sec(2.0);
  const Duration t = transfer_time(DataSize::bytes(2'000'000), bw);
  EXPECT_DOUBLE_EQ(t.ms(), 1.0);
  const Bandwidth back = achieved_bandwidth(DataSize::bytes(2'000'000), t);
  EXPECT_NEAR(back.gbps(), 2.0, 1e-9);
}

TEST(Units, FrequencyCycles) {
  const Frequency f = Frequency::ghz(3.2);
  EXPECT_NEAR(f.cycles(3.2e9).sec(), 1.0, 1e-9);
  EXPECT_NEAR(f.period().ps(), 312.5, 0.5);  // rounded to ps grid
}

TEST(Units, FlopRateRollup) {
  const FlopRate spe = FlopRate::gflops(12.8);
  EXPECT_NEAR((spe * 8).in_gflops(), 102.4, 1e-9);
  EXPECT_NEAR(FlopRate::pflops(1.38).in_gflops(), 1.38e6, 1e-3);
}

TEST(Units, DataSizeDecimalAndBinary) {
  EXPECT_EQ(DataSize::kib(256).b(), 262144);
  EXPECT_DOUBLE_EQ(DataSize::bytes(2'000'000'000).gb(), 2.0);
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversRange) {
  Rng r(9);
  bool seen[8] = {};
  for (int i = 0; i < 1000; ++i) seen[r.next_below(8)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(Stats, SummaryBasics) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.29099, 1e-4);
  EXPECT_EQ(s.count, 4u);
}

TEST(Stats, SummaryEmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const double xs[] = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20.0);
}

TEST(Stats, PercentileEmptyIsNaN) {
  // Header contract: total function, empty input yields quiet NaN
  // (matching summarize()'s all-zero empty behaviour) instead of
  // crashing via RR_EXPECTS.
  EXPECT_TRUE(std::isnan(percentile({}, 50.0)));
  EXPECT_TRUE(std::isnan(percentile({}, 0.0)));
  EXPECT_TRUE(std::isnan(percentile({}, 100.0)));
}

TEST(Stats, PercentileSingleElementIsThatElement) {
  const double xs[] = {7.5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 7.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 37.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 7.5);
}

TEST(Stats, SummarySingleElement) {
  const double xs[] = {42.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 42.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);  // n-1 denominator undefined: stays 0
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit f = fit_linear(xs, ys);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(Stats, GeometricMean) {
  const double xs[] = {1.0, 4.0};
  EXPECT_DOUBLE_EQ(geometric_mean(xs), 2.0);
}

TEST(Stats, RelativeError) {
  EXPECT_DOUBLE_EQ(relative_error(11.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(9.0, 10.0), 0.1);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.row().add("alpha").add(1.5, 1);
  t.row().add("b").add(12345);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("12345"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvQuotesSpecials) {
  Table t({"a", "b"});
  t.row().add("x,y").add("plain");
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

TEST(Cli, ParsesEqualsFormAndSwitches) {
  const char* argv[] = {"prog", "--alpha=3", "--beta=4.5", "--flag", "pos"};
  const CliParser cli(4, argv, {"alpha", "beta", "flag"});
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 4.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  // No binary takes a positional argument: one after the flags is a
  // usage error, not silently kept.
  EXPECT_EXIT(CliParser(5, argv, {"alpha", "beta", "flag"}),
              ::testing::ExitedWithCode(CliParser::kUsageExitCode),
              "prog: pos: unexpected argument");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliParser cli(1, argv, {"missing"});
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_FALSE(cli.get_bool("missing", false));
}

TEST(Cli, WellFormedNumbersStillParse) {
  const char* argv[] = {"prog", "--delta=-1", "--rate=0.05", "--eps=1e-3"};
  const CliParser cli(4, argv, {"delta", "rate", "eps"});
  EXPECT_EQ(cli.get_int("delta", 0), -1);
  EXPECT_DOUBLE_EQ(cli.get_double("delta", 0.0), -1.0);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.05);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 1e-3);
}

TEST(Cli, RangedIntsAcceptTheirBoundsAndFallback) {
  const char* argv[] = {"prog", "--lo=-1", "--hi=2147483647"};
  const CliParser cli(3, argv, {"lo", "hi", "missing"});
  EXPECT_EQ(cli.get_int("lo", 0, -1, 5), -1);
  EXPECT_EQ(cli.get_int("hi", 0, 0, INT_MAX), INT_MAX);
  EXPECT_EQ(cli.get_int("missing", 3, 0, 4), 3);
}

namespace {

std::int64_t int_flag(const char* arg) {
  const char* argv[] = {"prog", arg};
  return CliParser(2, argv, {"workers"}).get_int("workers", 1);
}

int ranged_int_flag(const char* arg) {
  const char* argv[] = {"prog", arg};
  return CliParser(2, argv, {"workers"}).get_int("workers", 1, 0, INT_MAX);
}

double double_flag(const char* arg) {
  const char* argv[] = {"prog", arg};
  return CliParser(2, argv, {"rate"}).get_double("rate", 1.0);
}

}  // namespace

// Edge validation: a value that is not one complete number of the type
// is a usage error (exit 2, fault::ExitCode::kUsage), never a silent 0.
TEST(CliDeathTest, MalformedNumbersAreUsageErrors) {
  const auto usage = ::testing::ExitedWithCode(CliParser::kUsageExitCode);
  EXPECT_EXIT(int_flag("--workers=abc"), usage,
              "prog: --workers=abc: not an integer");
  EXPECT_EXIT(int_flag("--workers=4x"), usage,
              "prog: --workers=4x: not an integer");
  EXPECT_EXIT(int_flag("--workers="), usage,
              "prog: --workers=: not an integer");
  EXPECT_EXIT(int_flag("--workers=99999999999999999999"), usage,
              "prog: --workers=99999999999999999999: not an integer");
  EXPECT_EXIT(double_flag("--rate=abc"), usage,
              "prog: --rate=abc: not a number");
  EXPECT_EXIT(double_flag("--rate=0.05x"), usage,
              "prog: --rate=0.05x: not a number");
  EXPECT_EXIT(double_flag("--rate="), usage, "prog: --rate=: not a number");
}

// A well-formed number outside the range its flag's code needs is a
// usage error too, never a silent narrowing (4294967298 is not 2).
TEST(CliDeathTest, OutOfRangeNumbersAreUsageErrors) {
  const auto usage = ::testing::ExitedWithCode(CliParser::kUsageExitCode);
  EXPECT_EXIT(ranged_int_flag("--workers=4294967298"), usage,
              "prog: --workers=4294967298: out of range \\[0, 2147483647\\]");
  EXPECT_EXIT(ranged_int_flag("--workers=2147483648"), usage,
              "prog: --workers=2147483648: out of range");
  EXPECT_EXIT(ranged_int_flag("--workers=-2"), usage,
              "prog: --workers=-2: out of range");
  EXPECT_EXIT(ranged_int_flag("--workers=-9223372036854775808"), usage,
              "prog: --workers=-9223372036854775808: out of range");
  // Malformed is still malformed, whatever the range.
  EXPECT_EXIT(ranged_int_flag("--workers=abc"), usage,
              "prog: --workers=abc: not an integer");
  EXPECT_EQ(ranged_int_flag("--workers=0"), 0);
  // A range that depends on other flags can exclude an absent flag's
  // fallback: the value the program would use is reported the same way.
  const char* argv[] = {"prog"};
  const CliParser cli(1, argv, {"workers"});
  EXPECT_EXIT((void)cli.get_int("workers", 5, 0, 4), usage,
              "prog: --workers=5: out of range \\[0, 4\\]");
}

// A flag the binary does not read is a usage error too, never ignored: a
// typo must not silently run with the default.
TEST(CliDeathTest, UnknownFlagsAreUsageErrors) {
  const auto usage = ::testing::ExitedWithCode(CliParser::kUsageExitCode);
  EXPECT_EXIT(int_flag("--wokers=3"), usage, "prog: --wokers: unknown flag");
  EXPECT_EXIT(int_flag("--verbose"), usage, "prog: --verbose: unknown flag");
  EXPECT_EXIT(int_flag("--=3"), usage, "prog: --: unknown flag");
  // So is an argument that is not a flag -- a stale output path, or the
  // value of a "--name value" form -- wherever it stands.
  EXPECT_EXIT(int_flag("input.txt"), usage, "prog: input.txt: unexpected argument");
  EXPECT_EXIT(int_flag("-w"), usage, "prog: -w: unexpected argument");
  const char* spaced[] = {"prog", "--workers", "3"};
  EXPECT_EXIT(CliParser(3, spaced, {"workers"}), usage,
              "prog: 3: unexpected argument");
  // Declared flags still parse.
  const char* argv[] = {"prog", "--workers=3"};
  const CliParser cli(2, argv, {"workers", "rate"});
  EXPECT_EQ(cli.get_int("workers", 1), 3);
  EXPECT_FALSE(cli.has("rate"));
  // Reading a name the binary never declared is a programming error.
  EXPECT_DEATH((void)cli.get("wokers", ""), "Precondition violation");
}

// ---------------------------------------------------------------------------
// JSON string escapes
// ---------------------------------------------------------------------------

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  // \u escapes for BMP code points: 1-, 2-, and 3-byte UTF-8.
  EXPECT_EQ(Json::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("\u00e9")").as_string(), "\xc3\xa9");  // e-acute
  EXPECT_EQ(Json::parse(R"("\u20ac")").as_string(),
            "\xe2\x82\xac");  // euro sign
}

TEST(Json, SurrogatePairsCombineToSupplementaryCodePoint) {
  // U+1F600 as \ud83d\ude00 must become 4-byte UTF-8, not two
  // 3-byte CESU-8 halves.
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
  // U+10000 (first supplementary code point) embedded between ASCII.
  EXPECT_EQ(Json::parse(R"("a\ud800\udc00b")").as_string(),
            "a\xf0\x90\x80\x80"
            "b");
}

TEST(Json, UnpairedSurrogatesAreRejected) {
  EXPECT_THROW(Json::parse(R"("\ud83d")"), std::runtime_error);  // lone high
  EXPECT_THROW(Json::parse(R"("\ude00")"), std::runtime_error);  // lone low
  EXPECT_THROW(Json::parse(R"("\ud83dx")"),                 // high + text
               std::runtime_error);
  EXPECT_THROW(Json::parse(R"("\ud83d\u0041")"),            // high + BMP
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// JSON values: one payload per kind
// ---------------------------------------------------------------------------

/// One value of each kind, plus near neighbours that must still differ.
std::vector<Json> one_of_each_kind() {
  Json obj = Json::object();
  obj.set("a", 1).set("b", Json::Array{Json("x"), Json()});
  return {Json(),
          Json(false),
          Json(true),
          Json(0.0),
          Json(1),
          Json(""),
          Json("1"),
          Json::array(),
          Json(Json::Array{Json()}),
          Json(Json::Array{Json(1), Json("x")}),
          Json::object(),
          obj};
}

TEST(JsonValue, HoldsOnlyItsOwnKindsPayload) {
  // A tagged union of the six kinds, not six fields side by side: a
  // std::string and the tag.
  EXPECT_LE(sizeof(Json), 40u);
}

TEST(JsonValue, SetOverwritesAValueWithOneOfAnotherKind) {
  const std::vector<Json> kinds = one_of_each_kind();
  Json o = Json::object();
  o.set("k", Json());
  for (const Json& from : kinds)
    for (const Json& to : kinds) {
      o.set("k", from);
      o.set("k", to);
      ASSERT_EQ(o.size(), 1u);
      EXPECT_EQ(o.at("k"), to) << from.dump() << " -> " << to.dump();
      EXPECT_EQ(Json::parse(o.dump()).at("k"), to) << to.dump();
    }
}

TEST(JsonValue, EveryKindSurvivesCopyAndMove) {
  const std::vector<Json> kinds = one_of_each_kind();
  for (const Json& k : kinds) {
    Json copy = k;
    EXPECT_EQ(copy, k) << k.dump();
    EXPECT_EQ(copy.dump(), k.dump());
    Json moved = std::move(copy);
    EXPECT_EQ(moved, k) << k.dump();
    EXPECT_EQ(moved.kind(), k.kind());
    for (const Json& other : kinds) {
      Json assigned = other;
      assigned = k;
      EXPECT_EQ(assigned, k) << other.dump() << " = " << k.dump();
      Json move_assigned = other;
      move_assigned = Json(k);
      EXPECT_EQ(move_assigned, k) << other.dump() << " = " << k.dump();
    }
  }
}

TEST(JsonValue, EqualityComparesAcrossKinds) {
  const std::vector<Json> kinds = one_of_each_kind();
  for (std::size_t i = 0; i < kinds.size(); ++i)
    for (std::size_t j = 0; j < kinds.size(); ++j)
      EXPECT_EQ(kinds[i] == kinds[j], i == j)
          << kinds[i].dump() << " vs " << kinds[j].dump();
  // Numbers compare by value whatever C++ type built them, and objects
  // in member order.
  EXPECT_EQ(Json(1), Json(1.0));
  EXPECT_EQ(Json(std::int64_t{3}), Json(std::uint64_t{3}));
  EXPECT_NE(Json::parse(R"({"a":1,"b":2})"), Json::parse(R"({"b":2,"a":1})"));
}

// ---------------------------------------------------------------------------
// JSON parse diagnostics: line, column, offset, offending byte
// ---------------------------------------------------------------------------

TEST(Json, ParseErrorsReportLineColumnAndOffendingByte) {
  // Missing ':' after the key on line 2 -- the error points at the '2'.
  const std::string text = "{\"a\": 1,\n  \"b\" 2}";
  try {
    Json::parse(text);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 7);
    ASSERT_LT(e.offset(), text.size());
    EXPECT_EQ(text[e.offset()], '2');
    EXPECT_NE(std::string(e.what()).find("line 2, column 7"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("'2'"), std::string::npos)
        << e.what();
  }

  // More malformed documents, each with the message, line, column and
  // offset the byte-at-a-time parser gave: strings cut off mid-run,
  // escapes at the start and end of a run, and \v and \f used as
  // whitespace (the C locale's isspace set).
  struct Case {
    std::string text;
    std::string what;
    int line;
    int column;
    std::size_t offset;
  };
  const std::vector<Case> cases = {
      {"\"abc",
       "json: unexpected end of input at line 1, column 5 (offset 4, end of "
       "input)",
       1, 5, 4},
      {"{\"key\": \"value",
       "json: unexpected end of input at line 1, column 15 (offset 14, end of "
       "input)",
       1, 15, 14},
      {"[\"ab\\",
       "json: unexpected end of input at line 1, column 6 (offset 5, end of "
       "input)",
       1, 6, 5},
      {"\"\\qabc\"",
       "json: bad escape at line 1, column 3 (offset 2, byte 0x71 'q')", 1, 3,
       2},
      {"\"abc\\q\"",
       "json: bad escape at line 1, column 6 (offset 5, byte 0x71 'q')", 1, 6,
       5},
      {"\"ab\\ncd\\",
       "json: unexpected end of input at line 1, column 9 (offset 8, end of "
       "input)",
       1, 9, 8},
      {"\"\\u12\"",
       "json: bad \\u escape at line 1, column 4 (offset 3, byte 0x31 '1')", 1,
       4, 3},
      {"\"\\u12zz\"",
       "json: bad \\u escape at line 1, column 6 (offset 5, byte 0x7a 'z')", 1,
       6, 5},
      {"\"abc\\u00e9def",
       "json: unexpected end of input at line 1, column 14 (offset 13, end of "
       "input)",
       1, 14, 13},
      {"\v[1,\f2,\v\fx]",
       "json: bad number at line 1, column 10 (offset 9, byte 0x78 'x')", 1, 10,
       9},
      {"\f{\"a\"\v:\f1\v,\n\v\"b\"\f2}",
       "json: expected ':' at line 2, column 6 (offset 17, byte 0x32 '2')", 2,
       6, 17},
      {"{\"a\":1}\v\fx",
       "json: trailing characters at line 1, column 10 (offset 9, byte 0x78 "
       "'x')",
       1, 10, 9},
      {"\"\\\\\"x",
       "json: trailing characters at line 1, column 5 (offset 4, byte 0x78 "
       "'x')",
       1, 5, 4},
      {"[\"a\" \"b\"]",
       "json: expected ',' at line 1, column 6 (offset 5, byte 0x22 '\"')", 1,
       6, 5},
      {"[1.2.3]", "json: bad number at line 1, column 2 (offset 1, byte 0x31 '1')",
       1, 2, 1},
      {"[-]", "json: bad number at line 1, column 2 (offset 1, byte 0x2d '-')",
       1, 2, 1},
      {"{\"a\\\"b\" 1}",
       "json: expected ':' at line 1, column 9 (offset 8, byte 0x31 '1')", 1, 9,
       8},
      {"\"\\t\\\"run\\\\\"\v,",
       "json: trailing characters at line 1, column 13 (offset 12, byte 0x2c "
       "',')",
       1, 13, 12},
  };
  for (const Case& c : cases) {
    try {
      Json::parse(c.text);
      ADD_FAILURE() << "expected JsonError for " << c.text;
    } catch (const JsonError& e) {
      EXPECT_EQ(e.what(), c.what) << c.text;
      EXPECT_EQ(e.line(), c.line) << c.text;
      EXPECT_EQ(e.column(), c.column) << c.text;
      EXPECT_EQ(e.offset(), c.offset) << c.text;
    }
  }
}

TEST(Json, ParseErrorAtEndOfInputSaysSo) {
  try {
    Json::parse("[1, 2");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 6);
    EXPECT_EQ(e.offset(), 5u);
    EXPECT_NE(std::string(e.what()).find("end of input"), std::string::npos)
        << e.what();
  }
}

TEST(Json, NonParseErrorsCarryNoPosition) {
  try {
    Json::parse("[1]").as_string();  // wrong-kind access, not a parse error
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.line(), 0);
    EXPECT_EQ(e.column(), 0);
    EXPECT_EQ(e.offset(), 0u);
  }
}

TEST(Json, IntegerAccessRejectsNumbersOutOfRange) {
  EXPECT_EQ(Json(std::int64_t{-4294967296}).as_int(), -4294967296);
  EXPECT_EQ(Json(-0x1p63).as_int(), std::numeric_limits<std::int64_t>::min());
  // Casting these to int64 would be undefined behaviour.
  EXPECT_THROW(Json(0x1p63).as_int(), JsonError);
  EXPECT_THROW(Json(1e300).as_int(), JsonError);
  EXPECT_THROW(Json(-1e300).as_int(), JsonError);

  EXPECT_EQ(Json(std::numeric_limits<int>::max()).as_int32(),
            std::numeric_limits<int>::max());
  EXPECT_EQ(Json(std::numeric_limits<int>::min()).as_int32(),
            std::numeric_limits<int>::min());
  EXPECT_THROW(Json(std::int64_t{2147483648}).as_int32(), JsonError);
  EXPECT_THROW(Json(std::int64_t{-2147483649}).as_int32(), JsonError);
  EXPECT_THROW(Json(1.5).as_int32(), JsonError);
}

// ---------------------------------------------------------------------------
// JSON output bytes: numbers are printf's %.17g, strings escape one way
// ---------------------------------------------------------------------------

std::string printf_17g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(JsonBytes, NumbersAreThePrintfBytes) {
  // Random bit patterns cover every exponent, subnormals included.
  Rng rng{2008};
  int checked = 0;
  while (checked < 1'000'000) {
    const double v = std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(v)) continue;
    ASSERT_EQ(Json(v).dump(), printf_17g(v)) << std::hexfloat << v;
    ++checked;
  }
  // The edges of the format: signed zero, the subnormal and normal
  // limits, the last exactly representable integers, the switch to
  // exponent form and a decimal with no exact binary form.
  const double edges[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          DBL_MIN,
                          DBL_MAX,
                          -DBL_MAX,
                          0x1p53 - 1.0,
                          0x1p53,
                          0x1p53 + 2.0,
                          1e21,
                          1e22,
                          0.1};
  for (const double v : edges) {
    EXPECT_EQ(Json(v).dump(), printf_17g(v)) << std::hexfloat << v;
    EXPECT_EQ(format_json_number(v), printf_17g(v)) << std::hexfloat << v;
  }
  // 2^53 + 1 is not a double: it rounds to 2^53 before it is printed.
  EXPECT_EQ(Json(static_cast<double>((std::int64_t{1} << 53) + 1)).dump(),
            "9007199254740992");
  EXPECT_EQ(Json(-0.0).dump(), "-0");
  EXPECT_EQ(Json(0.1).dump(), "0.10000000000000001");
  EXPECT_EQ(Json(1e22).dump(), "1e+22");
}

TEST(JsonBytes, NonFiniteNumbersThrow) {
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(Json(v).dump(), JsonError);
    EXPECT_THROW(format_json_number(v), JsonError);
    Json nested = Json::array();
    nested.push_back(v);
    Json doc = Json::object();
    doc.set("ok", 1).set("bad", std::move(nested));
    EXPECT_THROW(doc.dump(2), JsonError);
  }
}

TEST(JsonBytes, StringsEscapeAlikeEverywhereAndRoundTrip) {
  std::string ascii;
  for (int c = 0; c < 0x80; ++c) ascii += static_cast<char>(c);
  const std::string utf8 = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80";
  for (const std::string& s : {ascii, utf8, std::string(1, '\0')}) {
    const std::string dumped = Json(s).dump();
    std::ostringstream os;
    write_json_string(os, s);
    EXPECT_EQ(os.str(), dumped);
    std::string appended = "kept ";
    append_json_string(appended, s);
    EXPECT_EQ(appended, "kept " + dumped);
    EXPECT_EQ(Json::parse(dumped).as_string(), s);
    // A key escapes as a string value does.
    Json doc = Json::object();
    doc.set(s, 1);
    EXPECT_EQ(doc.dump(), "{" + dumped + ":1}");
  }
  // Control bytes without a short escape are \u00XX in lower-case hex;
  // DEL and UTF-8 bytes pass through.
  EXPECT_EQ(Json(std::string("\x01\x1f\"\\\n\t\r\x7f")).dump(),
            "\"\\u0001\\u001f\\\"\\\\\\n\\t\\r\x7f\"");
  EXPECT_EQ(Json(std::string("\b\f")).dump(), "\"\\u0008\\u000c\"");
  EXPECT_EQ(Json(utf8).dump(), "\"" + utf8 + "\"");
}

TEST(JsonBytes, IndentedDocumentMatchesLiteral) {
  Json inner = Json::object();
  inner.set("empty_obj", Json::object())
      .set("empty_arr", Json::array())
      .set("flag", false);
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(2.5);
  arr.push_back(std::move(inner));
  arr.push_back(Json());
  Json doc = Json::object();
  doc.set("name", "rr").set("values", std::move(arr)).set("n", -3);
  EXPECT_EQ(doc.dump(2),
            "{\n"
            "  \"name\": \"rr\",\n"
            "  \"values\": [\n"
            "    1,\n"
            "    2.5,\n"
            "    {\n"
            "      \"empty_obj\": {},\n"
            "      \"empty_arr\": [],\n"
            "      \"flag\": false\n"
            "    },\n"
            "    null\n"
            "  ],\n"
            "  \"n\": -3\n"
            "}");
  EXPECT_EQ(doc.dump(),
            "{\"name\":\"rr\",\"values\":[1,2.5,{\"empty_obj\":{},"
            "\"empty_arr\":[],\"flag\":false},null],\"n\":-3}");
  std::string appended = "kept ";
  doc.append_to(appended);
  EXPECT_EQ(appended, "kept " + doc.dump());
  EXPECT_EQ(Json::parse(doc.dump(2)), doc);
}

// ---------------------------------------------------------------------------
// Crash-safe file primitives
// ---------------------------------------------------------------------------

TEST(FileIo, WriteFileAtomicCreatesAndReplaces) {
  const std::string path = ::testing::TempDir() + "fileio-atomic." +
                           std::to_string(::getpid());
  std::remove(path.c_str());
  ASSERT_TRUE(write_file_atomic(path, "first\n"));
  EXPECT_EQ(read_file(path), "first\n");
  ASSERT_TRUE(write_file_atomic(path, "second, longer than the first\n"));
  EXPECT_EQ(read_file(path), "second, longer than the first\n");
  std::remove(path.c_str());
}

TEST(FileIo, ReadJsonlRecoversTornTail) {
  // A crash mid-append leaves a partial final line; everything before it
  // parses and the tail is reported, not thrown.
  const auto torn = read_jsonl("{\"a\":1}\n{\"b\":2}\n{\"c\":");
  ASSERT_EQ(torn.records.size(), 2u);
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_EQ(torn.tail, "{\"c\":");
  EXPECT_EQ(torn.clean_bytes, std::string("{\"a\":1}\n{\"b\":2}\n").size());

  // An unterminated-but-parseable last line is also treated as torn: the
  // append discipline always terminates a durable record with '\n'.
  const auto unterminated = read_jsonl("{\"a\":1}\n{\"b\":2}");
  ASSERT_EQ(unterminated.records.size(), 1u);
  EXPECT_TRUE(unterminated.torn_tail);

  const auto clean = read_jsonl("{\"a\":1}\n\n{\"b\":2}\n");  // blank ok
  EXPECT_EQ(clean.records.size(), 2u);
  EXPECT_FALSE(clean.torn_tail);
}

TEST(FileIo, ReadJsonlThrowsOnMidFileCorruption) {
  try {
    read_jsonl("{\"a\":1}\nnot json at all\n{\"b\":2}\n");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("jsonl line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Log, LevelNamesRoundTrip) {
  for (const LogLevel l : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                           LogLevel::kError, LogLevel::kOff})
    EXPECT_EQ(log_level_from_string(to_string(l)), l);
  EXPECT_EQ(log_level_from_string("warning"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_string("none"), LogLevel::kOff);
  EXPECT_EQ(log_level_from_string("bogus"), std::nullopt);
}

TEST(Log, ThresholdFiltersAndJsonSinkRecordsFields) {
  const std::string path = ::testing::TempDir() + "log-jsonl." +
                           std::to_string(::getpid());
  std::remove(path.c_str());
  const LogLevel saved = log_level();
  set_log_json_path(path);
  set_log_level(LogLevel::kInfo);
  RR_DEBUG("dropped " << 1);          // below threshold: no record
  RR_INFO("kept " << 42 << " \"q\"");  // quotes must survive the sink
  RR_WARN("warned");
  set_log_level(saved);
  set_log_json_path("");

  const JsonlData data = read_jsonl(read_file(path));
  ASSERT_EQ(data.records.size(), 2u);
  EXPECT_FALSE(data.torn_tail);
  const Json& info = data.records[0];
  EXPECT_EQ(info.at("level").as_string(), "info");
  EXPECT_EQ(info.at("msg").as_string(), "kept 42 \"q\"");
  EXPECT_GT(info.at("ts").as_double(), 0.0);
  EXPECT_GE(info.at("thread").as_int(), 0);
  EXPECT_EQ(data.records[1].at("level").as_string(), "warn");
  std::remove(path.c_str());
}

TEST(Log, ConcurrentEmitsProduceWholeJsonlLines) {
  const std::string path = ::testing::TempDir() + "log-mt." +
                           std::to_string(::getpid());
  std::remove(path.c_str());
  const LogLevel saved = log_level();
  set_log_json_path(path);
  set_log_level(LogLevel::kInfo);
  constexpr int kThreads = 4;
  constexpr int kEach = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < kEach; ++i) RR_INFO("t" << t << " msg " << i);
    });
  for (auto& t : threads) t.join();
  set_log_level(saved);
  set_log_json_path("");

  const JsonlData data = read_jsonl(read_file(path));
  EXPECT_EQ(data.records.size(), static_cast<std::size_t>(kThreads) * kEach);
  EXPECT_FALSE(data.torn_tail);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rr
