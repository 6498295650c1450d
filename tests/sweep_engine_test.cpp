// Determinism contract of the parallel sweep engine: for every ported
// study, N threads == 1 thread == the legacy serial loop, bit for bit
// (memcmp over the doubles, not a tolerance), and the result order is
// keyed by scenario index regardless of completion order.  Plus the
// resilient runtime (DESIGN.md §8): journal round trips, torn-tail
// recovery, deadline timeouts, the retry taxonomy, and the failure
// budget.  Resume from a journal is the campaign coordinator's, tested
// in campaign_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "fault/resilience_study.hpp"
#include "model/sweep_model.hpp"
#include "obs/metrics.hpp"
#include "sweep_engine/journal.hpp"
#include "sweep_engine/resilient.hpp"
#include "sweep_engine/result_store.hpp"
#include "sweep_engine/studies.hpp"
#include "util/fileio.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#include "tmp_dir.hpp"

namespace rr {
namespace {

bool bits_eq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const std::vector<fault::ResiliencePoint>& a,
                      const std::vector<fault::ResiliencePoint>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].nodes, b[i].nodes) << what << " point " << i;
    EXPECT_TRUE(bits_eq(a[i].fault_free_s, b[i].fault_free_s)) << what << i;
    EXPECT_TRUE(bits_eq(a[i].system_mtbf_h, b[i].system_mtbf_h)) << what << i;
    EXPECT_TRUE(bits_eq(a[i].checkpoint_s, b[i].checkpoint_s)) << what << i;
    EXPECT_TRUE(bits_eq(a[i].interval_s, b[i].interval_s)) << what << i;
    EXPECT_TRUE(bits_eq(a[i].analytic_s, b[i].analytic_s)) << what << i;
    EXPECT_TRUE(bits_eq(a[i].simulated_s, b[i].simulated_s)) << what << i;
    EXPECT_TRUE(bits_eq(a[i].mean_failures, b[i].mean_failures)) << what << i;
    EXPECT_TRUE(bits_eq(a[i].efficiency, b[i].efficiency)) << what << i;
  }
}

// Small enough to run in milliseconds, big enough that failures happen.
const std::vector<int>& study_nodes() {
  static const std::vector<int> n{1, 180, 1024, 3060};
  return n;
}

fault::StudyConfig quick_config() {
  fault::StudyConfig cfg;
  cfg.replications = 300;
  return cfg;
}

// ---------------------------------------------------------------------------
// Seed splitting
// ---------------------------------------------------------------------------

TEST(ScenarioSeed, DistinctAcrossIndicesAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10'000; ++i)
    seen.insert(engine::scenario_seed(0x0a0dbeefULL, i));
  EXPECT_EQ(seen.size(), 10'000u);  // no collisions over a realistic batch
  EXPECT_NE(engine::scenario_seed(1, 0), engine::scenario_seed(2, 0));
  // Deterministic: same (base, index) -> same seed, every time.
  EXPECT_EQ(engine::scenario_seed(7, 42), engine::scenario_seed(7, 42));
}

// ---------------------------------------------------------------------------
// Engine vs. legacy serial, bit for bit, at several thread counts
// ---------------------------------------------------------------------------

class EngineVsSerial : public ::testing::TestWithParam<int> {};

TEST_P(EngineVsSerial, HplStudyIsBitIdentical) {
  const auto& ctx = engine::SharedContext::instance();
  // Every size twice, so pool threads serve repeats from their own
  // fault-free tables.
  std::vector<int> nodes = study_nodes();
  nodes.insert(nodes.end(), study_nodes().begin(), study_nodes().end());
  const auto serial =
      fault::hpl_study(ctx.system(), ctx.topology(), nodes, quick_config());
  engine::SweepEngine eng({GetParam()});
  const auto parallel = engine::parallel_hpl_study(
      eng, ctx.system(), ctx.topology(), nodes, quick_config());
  expect_identical(serial, parallel, "hpl");
}

TEST_P(EngineVsSerial, SweepStudyIsBitIdentical) {
  const auto& ctx = engine::SharedContext::instance();
  const int iters = 2000;
  const auto serial = fault::sweep_study(ctx.system(), ctx.topology(),
                                         study_nodes(), iters, quick_config());
  engine::SweepEngine eng({GetParam()});
  const auto parallel = engine::parallel_sweep_study(
      eng, ctx.system(), ctx.topology(), study_nodes(), iters, quick_config());
  expect_identical(serial, parallel, "sweep3d");
}

TEST_P(EngineVsSerial, IntervalSweepIsBitIdentical) {
  const auto& ctx = engine::SharedContext::instance();
  const int nodes = ctx.topology().node_count();
  const double hpl_s = fault::hpl_fault_free_s(ctx.system(), nodes);
  const std::vector<double> multiples{0.25, 0.5, 1.0, 2.0, 4.0};
  const auto serial = fault::interval_sweep(ctx.system(), ctx.topology(), nodes,
                                            hpl_s, multiples, quick_config());
  engine::SweepEngine eng({GetParam()});
  const auto parallel =
      engine::parallel_interval_sweep(eng, ctx.system(), ctx.topology(), nodes,
                                      hpl_s, multiples, quick_config());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(bits_eq(serial[i].interval_s, parallel[i].interval_s)) << i;
    EXPECT_TRUE(bits_eq(serial[i].analytic_s, parallel[i].analytic_s)) << i;
    EXPECT_TRUE(bits_eq(serial[i].simulated_s, parallel[i].simulated_s)) << i;
  }
}

TEST_P(EngineVsSerial, ScaleSeriesIsBitIdentical) {
  const auto serial = model::figure13_series(model::paper_node_counts());
  engine::SweepEngine eng({GetParam()});
  const auto parallel =
      engine::parallel_scale_series(eng, model::paper_node_counts());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].nodes, parallel[i].nodes);
    EXPECT_TRUE(bits_eq(serial[i].opteron_s, parallel[i].opteron_s)) << i;
    EXPECT_TRUE(bits_eq(serial[i].cell_measured_s, parallel[i].cell_measured_s))
        << i;
    EXPECT_TRUE(bits_eq(serial[i].cell_best_s, parallel[i].cell_best_s)) << i;
  }
}

TEST_P(EngineVsSerial, LatencySweepIsBitIdentical) {
  const auto& ctx = engine::SharedContext::instance();
  const auto serial = ctx.fabric().latency_sweep(topo::NodeId{0});
  engine::SweepEngine eng({GetParam()});
  const auto parallel =
      engine::parallel_latency_sweep(eng, ctx.fabric(), topo::NodeId{0});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].node, parallel[i].node) << i;
    EXPECT_EQ(serial[i].hops, parallel[i].hops) << i;
    EXPECT_EQ(serial[i].latency.ps(), parallel[i].latency.ps()) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, EngineVsSerial, ::testing::Values(1, 2, 7),
                         [](const auto& inf) {
                           return std::string("t").append(
                               std::to_string(inf.param));
                         });

// ---------------------------------------------------------------------------
// Scheduling-order independence
// ---------------------------------------------------------------------------

TEST(SweepEngine, ResultsIndependentOfCompletionOrder) {
  // Scenario i sleeps so that high indices finish FIRST on a multi-worker
  // pool; the result vector must come back in index order with the exact
  // serial values anyway.
  const int n = 24;
  auto scenario = [](int i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50 * (24 - i)));
    Rng rng(engine::scenario_seed(99, static_cast<std::uint64_t>(i)));
    double acc = 0.0;
    for (int k = 0; k < 100; ++k) acc += rng.next_double();
    return acc;
  };
  std::vector<double> serial;
  for (int i = 0; i < n; ++i) serial.push_back(scenario(i));

  for (const int threads : {1, 2, 5, 8}) {
    engine::SweepEngine eng({threads});
    const auto out = eng.map<double>(n, scenario);
    ASSERT_EQ(out.size(), serial.size()) << threads;
    for (int i = 0; i < n; ++i)
      EXPECT_TRUE(bits_eq(out[static_cast<std::size_t>(i)],
                          serial[static_cast<std::size_t>(i)]))
          << "threads=" << threads << " i=" << i;
  }
}

// ---------------------------------------------------------------------------
// The JSON form of a resilience point (campaign scenario metrics)
// ---------------------------------------------------------------------------

TEST(ResiliencePointJson, RoundTripsBitExactlyAndRejectsNodesPastIntRange) {
  const auto& ctx = engine::SharedContext::instance();
  engine::SweepEngine eng({1});
  const auto pts = engine::parallel_hpl_study(eng, ctx.system(), ctx.topology(),
                                              {180}, quick_config());
  ASSERT_EQ(pts.size(), 1u);
  const Json rec = Json::parse(engine::to_json(pts[0]).dump());
  expect_identical({engine::resilience_point_from_json(rec)}, pts,
                   "decoded point");

  // A node count past int range is rejected, not wrapped.
  Json wide = rec;
  wide.set("nodes", Json(std::int64_t{4294967297}));
  EXPECT_THROW(engine::resilience_point_from_json(wide), JsonError);
}

// ---------------------------------------------------------------------------
// Sweep journal: record round trips, resume, torn tails, campaign identity
// ---------------------------------------------------------------------------

Json demo_params() {
  Json p = Json::object();
  p.set("study", Json("unit"));
  p.set("seed", Json("12345"));
  return p;
}

// Deterministic toy metrics with non-terminating binary fractions, so a
// bit-identity check through the %.17g round trip actually bites.
Json demo_metrics(int i) {
  Rng rng(engine::scenario_seed(0xfeedULL, static_cast<std::uint64_t>(i)));
  Json o = Json::object();
  o.set("x", Json(rng.next_double() / 3.0));
  o.set("y", Json(rng.next_double() * 1e-7));
  return o;
}

TEST(SweepJournal, EntryJsonRoundTripsBitExact) {
  engine::JournalEntry e;
  e.index = 4;
  e.status = engine::ScenarioStatus::kOk;
  e.attempts = 2;
  e.seed = 0xdeadbeefcafe1234ULL;  // does not fit a double: stored as string
  e.metrics = demo_metrics(4);

  const engine::JournalEntry r =
      engine::journal_entry_from_json(Json::parse(engine::to_json(e).dump()));
  EXPECT_EQ(r.index, 4);
  EXPECT_EQ(r.status, engine::ScenarioStatus::kOk);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.seed, e.seed);
  EXPECT_TRUE(bits_eq(r.metrics.at("x").as_double(),
                      e.metrics.at("x").as_double()));
  EXPECT_TRUE(bits_eq(r.metrics.at("y").as_double(),
                      e.metrics.at("y").as_double()));

  engine::JournalEntry q;
  q.index = 0;
  q.status = engine::ScenarioStatus::kQuarantined;
  q.attempts = 3;
  q.seed = 17;
  q.error_class = fault::ErrorClass::kTransient;
  q.error = "flaky dependency";
  const engine::JournalEntry rq =
      engine::journal_entry_from_json(Json::parse(engine::to_json(q).dump()));
  EXPECT_EQ(rq.status, engine::ScenarioStatus::kQuarantined);
  EXPECT_EQ(rq.error_class, fault::ErrorClass::kTransient);
  EXPECT_EQ(rq.error, "flaky dependency");
  EXPECT_FALSE(rq.ok());

  // An index or attempt count past int range is rejected, not wrapped:
  // truncated to 32 bits, index 4294967301 would read as 5.
  Json wide = engine::to_json(e);
  wide.set("index", Json(std::int64_t{4294967301}));
  EXPECT_THROW(engine::journal_entry_from_json(wide), JsonError);
  wide = engine::to_json(e);
  wide.set("attempts", Json(std::int64_t{4294967298}));
  EXPECT_THROW(engine::journal_entry_from_json(wide), JsonError);
}

TEST(SweepJournal, MalformedSeedsFailClosed) {
  // A seed decodes only from 1-20 ASCII digits that fit in uint64; any
  // other string is a corrupt record, not a seed to guess at.
  engine::JournalEntry e;
  e.metrics = demo_metrics(0);
  Json rec = engine::to_json(e);
  for (const char* bad :
       {"", "abc", "12abc", " 7", "-1", "99999999999999999999"}) {
    rec.set("seed", bad);
    EXPECT_THROW(engine::journal_entry_from_json(rec), JsonError) << bad;
  }
  for (const char* good : {"0", "18446744073709551615"}) {
    rec.set("seed", good);
    const engine::JournalEntry r = engine::journal_entry_from_json(rec);
    EXPECT_EQ(std::to_string(r.seed), good);
    EXPECT_EQ(engine::to_json(r).at("seed").as_string(), good);
  }
}

TEST(SweepJournal, FreshJournalReopensAndResumes) {
  const std::string path = tmp_path("journal-resume");

  engine::JournalEntry ok;
  ok.index = 2;
  ok.seed = 77;
  ok.metrics = demo_metrics(2);
  {
    engine::SweepJournal j(path, demo_params(), 4);
    EXPECT_FALSE(j.resumed());
    EXPECT_EQ(j.completed_count(), 0u);
    j.append(ok);
    engine::JournalEntry bad;
    bad.index = 0;
    bad.status = engine::ScenarioStatus::kQuarantined;
    bad.attempts = 3;
    bad.seed = 5;
    bad.error_class = fault::ErrorClass::kPermanent;
    bad.error = "boom";
    j.append(bad);
  }

  engine::SweepJournal j2(path, demo_params(), 4);
  EXPECT_TRUE(j2.resumed());
  EXPECT_FALSE(j2.tail_recovered());
  EXPECT_EQ(j2.completed_count(), 2u);
  EXPECT_TRUE(j2.completed(0));
  EXPECT_FALSE(j2.completed(1));
  EXPECT_TRUE(j2.completed(2));
  ASSERT_TRUE(j2.entry(2).has_value());
  EXPECT_TRUE(bits_eq(j2.entry(2)->metrics.at("x").as_double(),
                      ok.metrics.at("x").as_double()));
  const auto all = j2.entries();  // index order, not append order
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].index, 0);
  EXPECT_EQ(all[1].index, 2);
  std::remove(path.c_str());
}

TEST(SweepJournal, TornTailIsTruncatedAndRecovered) {
  const std::string path = tmp_path("journal-torn");
  {
    engine::SweepJournal j(path, demo_params(), 3);
    engine::JournalEntry e;
    e.index = 0;
    e.seed = 1;
    e.metrics = demo_metrics(0);
    j.append(e);
  }
  {
    // A kill mid-append can only leave a partial final line.
    std::ofstream os(path, std::ios::app | std::ios::binary);
    os << R"({"index":1,"status":"ok","atte)";
  }
  {
    engine::SweepJournal j(path, demo_params(), 3);
    EXPECT_TRUE(j.resumed());
    EXPECT_TRUE(j.tail_recovered());
    EXPECT_EQ(j.completed_count(), 1u);
    EXPECT_FALSE(j.completed(1));
    engine::JournalEntry e;  // the torn index is simply recomputed
    e.index = 1;
    e.seed = 2;
    e.metrics = demo_metrics(1);
    j.append(e);
  }
  engine::SweepJournal j(path, demo_params(), 3);
  EXPECT_FALSE(j.tail_recovered());  // truncation left a clean file
  EXPECT_EQ(j.completed_count(), 2u);
  std::remove(path.c_str());
}

TEST(SweepJournal, RefusesMismatchedCampaignOrScenarioCount) {
  const std::string path = tmp_path("journal-mismatch");
  { engine::SweepJournal j(path, demo_params(), 4); }
  Json other = demo_params();
  other.set("seed", Json("99999"));
  EXPECT_NE(engine::campaign_hash(demo_params()),
            engine::campaign_hash(other));
  EXPECT_THROW(engine::SweepJournal(path, other, 4), std::runtime_error);
  EXPECT_THROW(engine::SweepJournal(path, demo_params(), 5),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(SweepJournal, RejectsDuplicateAndOutOfRangeIndices) {
  const std::string path = tmp_path("journal-dup");
  engine::SweepJournal j(path, demo_params(), 2);
  engine::JournalEntry e;
  e.index = 1;
  e.seed = 3;
  e.metrics = demo_metrics(1);
  j.append(e);
  EXPECT_THROW(j.append(e), std::runtime_error);  // the protocol never
                                                  // journals an index twice
  e.index = 2;
  EXPECT_THROW(j.append(e), std::runtime_error);
  e.index = -1;
  EXPECT_THROW(j.append(e), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SweepJournal, GroupAppendIsAllOrNothingAndReopensRecordByRecord) {
  const std::string path = tmp_path("journal-group");
  std::vector<engine::JournalEntry> group(3);
  for (int k = 0; k < 3; ++k) {
    group[static_cast<std::size_t>(k)].index = 2 * k;
    group[static_cast<std::size_t>(k)].seed = static_cast<std::uint64_t>(k);
    group[static_cast<std::size_t>(k)].metrics = demo_metrics(2 * k);
  }
  {
    engine::SweepJournal j(path, demo_params(), 6);
    j.append(std::vector<engine::JournalEntry>{});  // a no-op
    // An index repeated within the group, or one already journaled,
    // rejects the whole group before a byte is written.
    std::vector<engine::JournalEntry> repeated = {group[1], group[1]};
    EXPECT_THROW(j.append(repeated), std::runtime_error);
    EXPECT_EQ(j.completed_count(), 0u);
    j.append(group);
    EXPECT_EQ(j.completed_count(), 3u);
    EXPECT_THROW(j.append(std::vector<engine::JournalEntry>{group[2]}),
                 std::runtime_error);
  }
  engine::SweepJournal j(path, demo_params(), 6);
  EXPECT_TRUE(j.resumed());
  EXPECT_EQ(j.completed_count(), 3u);
  EXPECT_TRUE(j.completed(4));
  EXPECT_FALSE(j.completed(1));
  EXPECT_TRUE(bits_eq(j.entry(4)->metrics.at("x").as_double(),
                      group[2].metrics.at("x").as_double()));
  std::remove(path.c_str());
}

/// Entries of every status whose bytes exercise the writers: errors that
/// need every kind of escape, both extreme seeds, and metrics holding a
/// signed zero, the smallest subnormal, the switch to exponent form, a
/// decimal with no exact binary form, and nested arrays.
std::vector<engine::JournalEntry> writer_entries() {
  Json metrics = Json::object();
  metrics.set("neg_zero", -0.0)
      .set("denorm_min", 5e-324)
      .set("big", 1e21)
      .set("tenth", 0.1)
      .set("nested", Json::Array{Json::Array{Json(1), Json::Array{}},
                                 Json::object(), Json(), Json(true)})
      .set("name", "caf\xc3\xa9 \"q\"");
  const std::string nasty = std::string("quote \" backslash \\ newline \n") +
                            " tab \t cr \r nul " + '\0' + " bell \x07 del " +
                            "\x7f utf-8 \xc3\xa9 \xe2\x82\xac \xf0\x9f\x9a\x80";
  std::vector<engine::JournalEntry> out(4);
  out[0].index = 0;
  out[0].seed = 0;
  out[0].metrics = metrics;
  out[1].index = 1;
  out[1].attempts = 3;
  out[1].seed = std::numeric_limits<std::uint64_t>::max();
  out[1].metrics = Json::object();
  out[2].index = 2;
  out[2].status = engine::ScenarioStatus::kTimedOut;
  out[2].seed = std::numeric_limits<std::uint64_t>::max();
  out[2].error_class = fault::ErrorClass::kTransient;
  out[2].error = nasty;
  out[3].index = 3;
  out[3].status = engine::ScenarioStatus::kQuarantined;
  out[3].attempts = 2;
  out[3].seed = 0;
  out[3].error_class = fault::ErrorClass::kPoison;
  out[3].error = nasty + "\x1f\b\f";
  return out;
}

TEST(JournalEntryWriter, BytesAreTheTreeDump) {
  for (const engine::JournalEntry& e : writer_entries()) {
    std::string out = "kept ";
    engine::append_json(out, e);
    EXPECT_EQ(out, "kept " + engine::to_json(e).dump()) << "index " << e.index;
  }
}

TEST(SweepJournal, GroupAppendWritesTheChecksummedTreeDumps) {
  const std::string path = tmp_path("journal-bytes");
  const std::vector<engine::JournalEntry> group = writer_entries();
  const int n = static_cast<int>(group.size());
  { engine::SweepJournal(path, demo_params(), n).append(group); }
  // The reference line: the record's tree dump with the FNV-1a hash of
  // those bytes spliced in before its closing brace.
  std::string want;
  for (const engine::JournalEntry& e : group) {
    std::string line = engine::to_json(e).dump();
    const std::string hex = engine::campaign_hex(engine::fnv1a_hash(line));
    line.insert(line.size() - 1, ",\"c\":\"" + hex + "\"");
    want += line + "\n";
  }
  const std::string text = read_file(path);
  EXPECT_EQ(text.substr(text.find('\n') + 1), want);  // past the header

  const auto back = engine::read_journal_entries(path, demo_params(), n);
  for (const engine::JournalEntry& e : group) {
    const auto& r = back[static_cast<std::size_t>(e.index)];
    ASSERT_TRUE(r.has_value()) << e.index;
    EXPECT_EQ(engine::to_json(*r).dump(), engine::to_json(e).dump());
    EXPECT_EQ(r->error, e.error);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Resilient runner: retry taxonomy, deadline, failure budget
// ---------------------------------------------------------------------------

TEST(ResilientRun, TransientFailuresRetryToSuccess) {
  engine::ResilientConfig rc;
  rc.retry.max_attempts = 3;
  rc.retry.initial_backoff_us = 50.0;
  std::atomic<int> tries{0};
  const auto report = engine::run_resilient(
      5,
      [&](int i, const engine::CancelToken&) {
        if (i == 2 && tries.fetch_add(1, std::memory_order_acq_rel) < 2)
          throw engine::TransientError("flaky");
        return demo_metrics(i);
      },
      rc);
  EXPECT_EQ(report.ok, 5);
  EXPECT_EQ(report.retried, 1);
  EXPECT_EQ(report.quarantined, 0);
  ASSERT_TRUE(report.entries[2].has_value());
  EXPECT_EQ(report.entries[2]->attempts, 3);  // two failures, then success
  EXPECT_EQ(report.outcome, engine::RunOutcome::kClean);
  EXPECT_EQ(report.exit_code(), 0);
}

TEST(ResilientRun, MetricsCountRetriesAndOutcomes) {
  // The resilient runner publishes its retry taxonomy to the global
  // registry; counters are cumulative, so assert on deltas.
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t ok0 = reg.counter("sweep.ok").value();
  const std::uint64_t retries0 = reg.counter("sweep.retries").value();
  const std::uint64_t quarantined0 = reg.counter("sweep.quarantined").value();
  auto& backoff = reg.histogram("sweep.backoff_us", obs::latency_bounds_us());
  const std::uint64_t backoff0 = backoff.count();
  const double backoff_sum0 = backoff.sum();

  engine::ResilientConfig rc;
  rc.retry.max_attempts = 3;
  rc.retry.initial_backoff_us = 10.0;
  std::atomic<int> tries{0};
  const auto report = engine::run_resilient(
      5,
      [&](int i, const engine::CancelToken&) {
        if (i == 2 && tries.fetch_add(1, std::memory_order_acq_rel) < 2)
          throw engine::TransientError("flaky");
        if (i == 4) throw std::runtime_error("bad input");
        return demo_metrics(i);
      },
      rc);
  EXPECT_EQ(report.ok, 4);
  EXPECT_EQ(report.quarantined, 1);

  EXPECT_EQ(reg.counter("sweep.ok").value() - ok0, 4u);
  EXPECT_EQ(reg.counter("sweep.retries").value() - retries0, 2u);
  EXPECT_EQ(reg.counter("sweep.quarantined").value() - quarantined0, 1u);
  // Every retry records its backoff (10us, then 20us doubled).
  EXPECT_EQ(backoff.count() - backoff0, 2u);
  EXPECT_GE(backoff.sum() - backoff_sum0, 10.0);
}

TEST(ResilientRun, PermanentAndPoisonFailuresAreQuarantinedNotRetried) {
  const auto report = engine::run_resilient(
      5,
      [](int i, const engine::CancelToken&) {
        if (i == 1) throw std::runtime_error("bad input");  // unknown type
        if (i == 3) throw 42;  // not even an exception
        return demo_metrics(i);
      },
      {});
  EXPECT_EQ(report.ok, 3);
  EXPECT_EQ(report.quarantined, 2);
  ASSERT_TRUE(report.entries[1].has_value());
  EXPECT_EQ(report.entries[1]->status, engine::ScenarioStatus::kQuarantined);
  EXPECT_EQ(report.entries[1]->error_class, fault::ErrorClass::kPermanent);
  EXPECT_EQ(report.entries[1]->attempts, 1);  // deterministic: no retry
  ASSERT_TRUE(report.entries[3].has_value());
  EXPECT_EQ(report.entries[3]->error_class, fault::ErrorClass::kPoison);
  EXPECT_EQ(report.outcome, engine::RunOutcome::kDegraded);
  EXPECT_EQ(report.exit_code(), 3);
}

TEST(ResilientRun, WatchdogTimesOutOverrunWithoutPoisoningBatch) {
  engine::ResilientConfig rc;
  rc.deadline = std::chrono::milliseconds(60);
  const auto report = engine::run_resilient(
      4,
      [](int i, const engine::CancelToken& cancel) {
        if (i == 1) {
          const auto t0 = std::chrono::steady_clock::now();
          while (!cancel.cancelled() &&
                 std::chrono::steady_clock::now() - t0 <
                     std::chrono::seconds(10))
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          throw engine::TransientError("cancelled");
        }
        return demo_metrics(i);
      },
      rc);
  EXPECT_EQ(report.ok, 3);
  EXPECT_EQ(report.timed_out, 1);
  ASSERT_TRUE(report.entries[1].has_value());
  EXPECT_EQ(report.entries[1]->status, engine::ScenarioStatus::kTimedOut);
  EXPECT_EQ(report.outcome, engine::RunOutcome::kDegraded);
  EXPECT_EQ(report.exit_code(), 3);
}

TEST(ResilientRun, FailureBudgetAbortsCleanly) {
  // Scenarios run in index order: 0 and 1 fail, the budget (1) trips,
  // and the rest count as not run.
  engine::ResilientConfig rc;
  rc.failure_budget = 1;
  const auto report = engine::run_resilient(
      8,
      [](int, const engine::CancelToken&) -> Json {
        throw engine::PermanentError("always fails");
      },
      rc);
  EXPECT_EQ(report.quarantined, 2);
  EXPECT_EQ(report.not_run, 6);
  EXPECT_FALSE(report.entries.back().has_value());
  EXPECT_EQ(report.outcome, engine::RunOutcome::kBudgetExceeded);
  EXPECT_EQ(report.exit_code(), 4);
}

TEST(ResilientRun, ScenariosRunInOrderOnTheCallersThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  const auto report = engine::run_resilient(
      4,
      [&](int i, const engine::CancelToken&) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
        return demo_metrics(i);
      },
      {});
  EXPECT_EQ(report.ok, 4);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));

  // A shard-range run keeps the order it was given.
  order.clear();
  const auto subset = engine::run_resilient_indices(
      6, {4, 1, 5},
      [&](int i, const engine::CancelToken&) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
        return demo_metrics(i);
      },
      nullptr);
  EXPECT_EQ(subset.ok, 3);
  EXPECT_EQ(order, (std::vector<int>{4, 1, 5}));
}

TEST(ResilientRun, DeadlineCostsNoIdleTime) {
  // A deadline is a clock comparison when a scenario polls, not something
  // the call waits on: instant scenarios return at once however long it is.
  engine::ResilientConfig rc;
  rc.deadline = std::chrono::seconds(60);
  const auto t0 = std::chrono::steady_clock::now();
  const auto report = engine::run_resilient(
      4,
      [](int i, const engine::CancelToken& cancel) {
        EXPECT_FALSE(cancel.cancelled());
        return demo_metrics(i);
      },
      rc);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  EXPECT_EQ(report.ok, 4);
  EXPECT_EQ(report.outcome, engine::RunOutcome::kClean);
}

TEST(ResilientRun, DeadlineTooLargeForTheClockNeverFires) {
  // milliseconds::max() cannot be added to the steady clock: it means "no
  // deadline", and arming it must not overflow (UBSan checks).
  engine::ResilientConfig rc;
  rc.deadline = std::chrono::milliseconds::max();
  const auto report = engine::run_resilient(
      3,
      [](int i, const engine::CancelToken& cancel) {
        EXPECT_FALSE(cancel.cancelled());
        return demo_metrics(i);
      },
      rc);
  EXPECT_EQ(report.ok, 3);
  EXPECT_EQ(report.outcome, engine::RunOutcome::kClean);
}

TEST(ResilientRun, BackoffPastTheDeadlineEndsTimedOut) {
  // Retries share the deadline armed when the scenario started, so a
  // backoff that outlasts it leaves the next attempt already cancelled.
  engine::ResilientConfig rc;
  rc.deadline = std::chrono::milliseconds(200);
  rc.retry.max_attempts = 5;
  rc.retry.initial_backoff_us = 250'000.0;
  rc.retry.max_backoff_us = 250'000.0;
  int attempts = 0;
  const auto report = engine::run_resilient(
      2,
      [&](int i, const engine::CancelToken& cancel) -> Json {
        if (i == 1) return demo_metrics(i);
        ++attempts;
        if (cancel.cancelled()) throw engine::TransientError("cancelled");
        throw engine::TransientError("flaky");
      },
      rc);
  EXPECT_EQ(attempts, 2);
  ASSERT_TRUE(report.entries[0].has_value());
  EXPECT_EQ(report.entries[0]->status, engine::ScenarioStatus::kTimedOut);
  EXPECT_EQ(report.entries[0]->attempts, 2);
  EXPECT_EQ(report.timed_out, 1);
  EXPECT_EQ(report.ok, 1);
  EXPECT_EQ(report.outcome, engine::RunOutcome::kDegraded);
}

// ---------------------------------------------------------------------------
// Shard-range runs (the campaign service's building blocks): a subset run
// fills only its requested slots and appends them to the journal it is
// handed.
// ---------------------------------------------------------------------------

TEST(ShardRuns, CampaignHexIsStableLowercasePadded) {
  EXPECT_EQ(engine::campaign_hex(0x1fULL), "000000000000001f");
  EXPECT_EQ(engine::campaign_hex(0xDEADBEEFCAFE1234ULL), "deadbeefcafe1234");
  EXPECT_EQ(engine::campaign_hex(0), "0000000000000000");
  EXPECT_EQ(engine::campaign_hex(~0ULL), "ffffffffffffffff");
}

TEST(ShardRuns, IndicesSubsetRunsOnlyRequestedSlots) {
  const std::string path = tmp_path("journal-subset");
  engine::SweepJournal journal(path, demo_params(), 6);
  const auto fn = [](int i, const engine::CancelToken&) {
    return demo_metrics(i);
  };
  const auto report =
      engine::run_resilient_indices(6, {1, 3, 5}, fn, &journal, {});
  EXPECT_EQ(report.ok, 3);
  EXPECT_EQ(report.not_run, 0);
  ASSERT_EQ(report.entries.size(), 6u);
  EXPECT_FALSE(report.entries[0].has_value());
  EXPECT_TRUE(report.entries[1].has_value());
  EXPECT_FALSE(report.entries[2].has_value());
  EXPECT_TRUE(report.entries[5].has_value());
  EXPECT_EQ(journal.completed_count(), 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rr
