#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>
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
  const CliParser cli(5, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 4.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliParser cli(1, argv);
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_FALSE(cli.get_bool("missing", false));
}

TEST(Cli, WellFormedNumbersStillParse) {
  const char* argv[] = {"prog", "--delta=-1", "--rate=0.05", "--eps=1e-3"};
  const CliParser cli(4, argv);
  EXPECT_EQ(cli.get_int("delta", 0), -1);
  EXPECT_DOUBLE_EQ(cli.get_double("delta", 0.0), -1.0);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.05);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 1e-3);
}

namespace {

std::int64_t int_flag(const char* arg) {
  const char* argv[] = {"prog", arg};
  return CliParser(2, argv).get_int("workers", 1);
}

double double_flag(const char* arg) {
  const char* argv[] = {"prog", arg};
  return CliParser(2, argv).get_double("rate", 1.0);
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
