// Determinism contract of the parallel sweep engine: for every ported
// study, N threads == 1 thread == the legacy serial loop, bit for bit
// (memcmp over the doubles, not a tolerance), and the result order is
// keyed by scenario index regardless of completion order.  Plus the
// crash-safe resumable runtime (DESIGN.md §8): journal round trips,
// torn-tail recovery, watchdog timeouts, the retry taxonomy, the
// failure budget, and a fork-based kill-and-resume bit-identity check.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "fault/resilience_study.hpp"
#include "model/sweep_model.hpp"
#include "obs/metrics.hpp"
#include "sweep_engine/result_store.hpp"
#include "sweep_engine/studies.hpp"
#include "util/fileio.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_THREAD__)
#define RR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RR_TSAN 1
#endif
#endif

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
  const auto serial = fault::hpl_study(ctx.system(), ctx.topology(),
                                       study_nodes(), quick_config());
  engine::SweepEngine eng({GetParam()});
  const auto parallel = engine::parallel_hpl_study(
      eng, ctx.system(), ctx.topology(), study_nodes(), quick_config());
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
// Result store records and provenance
// ---------------------------------------------------------------------------

TEST(ResultStore, RecordsCarryParamsMetricsSeedAndProvenance) {
  const auto& ctx = engine::SharedContext::instance();
  engine::SweepEngine eng({2});
  engine::ResultStore store;
  const auto cfg = quick_config();
  engine::parallel_hpl_study(eng, ctx.system(), ctx.topology(), study_nodes(),
                             cfg, &store);
  ASSERT_EQ(store.size(), study_nodes().size());

  std::ostringstream os;
  store.write(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    const Json rec = Json::parse(line);
    ASSERT_EQ(rec.kind(), Json::Kind::kObject) << line;
    ASSERT_NE(rec.find("nodes"), nullptr);
    ASSERT_NE(rec.find("seed"), nullptr);
    ASSERT_NE(rec.find("simulated_s"), nullptr);
    const Json* prov = rec.find("provenance");
    ASSERT_NE(prov, nullptr);
    EXPECT_EQ(prov->at("engine").as_string(), "parallel");
    EXPECT_EQ(prov->at("threads").as_double(), 2.0);
    EXPECT_EQ(prov->at("base_seed").as_string(), std::to_string(cfg.seed));
    ++lines;
  }
  EXPECT_EQ(lines, store.size());

  // The stored seed is exactly the serial derivation for that scenario
  // (a decimal string: 64-bit seeds don't fit in a JSON double).
  const Json first = Json::parse(os.str().substr(0, os.str().find('\n')));
  EXPECT_EQ(first.at("seed").as_string(),
            std::to_string(fault::study_point_seed(cfg.seed, study_nodes()[0], 0)));
}

TEST(ResultStore, OneThreadEngineRunsStillStampParallel) {
  // "serial" provenance is reserved for the legacy serial loops; an
  // engine run with one worker is distinguished by threads=1, not by
  // pretending it came from the serial code path.
  const auto& ctx = engine::SharedContext::instance();
  engine::SweepEngine eng({1});
  engine::ResultStore store;
  engine::parallel_hpl_study(eng, ctx.system(), ctx.topology(), {180},
                             quick_config(), &store);
  ASSERT_EQ(store.size(), 1u);
  std::ostringstream os;
  store.write(os);
  const Json rec = Json::parse(os.str().substr(0, os.str().find('\n')));
  const Json* prov = rec.find("provenance");
  ASSERT_NE(prov, nullptr);
  EXPECT_EQ(prov->at("engine").as_string(), "parallel");
  EXPECT_EQ(prov->at("threads").as_double(), 1.0);
}

// ---------------------------------------------------------------------------
// Sweep journal: record round trips, resume, torn tails, campaign identity
// ---------------------------------------------------------------------------

std::string tmp_path(const std::string& stem) {
  return ::testing::TempDir() + stem + "." + std::to_string(::getpid());
}

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
}

TEST(SweepJournal, FreshJournalReopensAndResumes) {
  const std::string path = tmp_path("journal-resume");
  std::remove(path.c_str());

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
  std::remove(path.c_str());
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
  std::remove(path.c_str());
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
  std::remove(path.c_str());
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

// ---------------------------------------------------------------------------
// ThreadPool abort flag
// ---------------------------------------------------------------------------

TEST(ThreadPool, PreArmedAbortDrainsEveryIndexWithoutRunningAny) {
  engine::ThreadPool pool(3);
  std::atomic<bool> abort{true};
  std::atomic<int> ran{0};
  const auto errors = pool.for_each_index(
      10, [&](int) { ran.fetch_add(1, std::memory_order_relaxed); }, &abort);
  EXPECT_EQ(ran.load(), 0);
  ASSERT_EQ(errors.size(), 10u);
  for (const auto& err : errors) {
    ASSERT_NE(err, nullptr);
    EXPECT_THROW(std::rethrow_exception(err), engine::BatchAborted);
  }
}

// ---------------------------------------------------------------------------
// Resilient runner: retry taxonomy, watchdog, failure budget
// ---------------------------------------------------------------------------

TEST(ResilientRun, TransientFailuresRetryToSuccess) {
  engine::SweepEngine eng({2});
  engine::ResilientConfig rc;
  rc.retry.max_attempts = 3;
  rc.retry.initial_backoff_us = 50.0;
  std::atomic<int> tries{0};
  const auto report = engine::run_resilient(
      eng, 5,
      [&](int i, const engine::CancelToken&) {
        if (i == 2 && tries.fetch_add(1, std::memory_order_acq_rel) < 2)
          throw engine::TransientError("flaky");
        return demo_metrics(i);
      },
      nullptr, rc);
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
  const std::uint64_t indices0 = reg.counter("pool.indices_run").value();
  auto& backoff = reg.histogram("sweep.backoff_us", obs::latency_bounds_us());
  const std::uint64_t backoff0 = backoff.count();
  const double backoff_sum0 = backoff.sum();

  engine::SweepEngine eng({2});
  engine::ResilientConfig rc;
  rc.retry.max_attempts = 3;
  rc.retry.initial_backoff_us = 10.0;
  std::atomic<int> tries{0};
  const auto report = engine::run_resilient(
      eng, 5,
      [&](int i, const engine::CancelToken&) {
        if (i == 2 && tries.fetch_add(1, std::memory_order_acq_rel) < 2)
          throw engine::TransientError("flaky");
        if (i == 4) throw std::runtime_error("bad input");
        return demo_metrics(i);
      },
      nullptr, rc);
  EXPECT_EQ(report.ok, 4);
  EXPECT_EQ(report.quarantined, 1);

  EXPECT_EQ(reg.counter("sweep.ok").value() - ok0, 4u);
  EXPECT_EQ(reg.counter("sweep.retries").value() - retries0, 2u);
  EXPECT_EQ(reg.counter("sweep.quarantined").value() - quarantined0, 1u);
  // Retries happen inside a single pool dispatch, so the pool sees
  // exactly one run per scenario index.
  EXPECT_EQ(reg.counter("pool.indices_run").value() - indices0, 5u);
  // Every retry records its backoff (10us, then 20us doubled).
  EXPECT_EQ(backoff.count() - backoff0, 2u);
  EXPECT_GE(backoff.sum() - backoff_sum0, 10.0);
}

TEST(ResilientRun, PermanentAndPoisonFailuresAreQuarantinedNotRetried) {
  engine::SweepEngine eng({2});
  const auto report = engine::run_resilient(
      eng, 5,
      [](int i, const engine::CancelToken&) {
        if (i == 1) throw std::runtime_error("bad input");  // unknown type
        if (i == 3) throw 42;  // not even an exception
        return demo_metrics(i);
      },
      nullptr, {});
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
  engine::SweepEngine eng({2});
  engine::ResilientConfig rc;
  rc.deadline = std::chrono::milliseconds(60);
  const auto report = engine::run_resilient(
      eng, 4,
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
      nullptr, rc);
  EXPECT_EQ(report.ok, 3);
  EXPECT_EQ(report.timed_out, 1);
  ASSERT_TRUE(report.entries[1].has_value());
  EXPECT_EQ(report.entries[1]->status, engine::ScenarioStatus::kTimedOut);
  EXPECT_EQ(report.outcome, engine::RunOutcome::kDegraded);
  EXPECT_EQ(report.exit_code(), 3);
}

TEST(ResilientRun, FailureBudgetAbortsCleanly) {
  // One worker makes the claim order deterministic: scenarios 0 and 1
  // fail, the budget (1) trips, and the pool drains the rest unrun.
  engine::SweepEngine eng({1});
  engine::ResilientConfig rc;
  rc.failure_budget = 1;
  const auto report = engine::run_resilient(
      eng, 8,
      [](int, const engine::CancelToken&) -> Json {
        throw engine::PermanentError("always fails");
      },
      nullptr, rc);
  EXPECT_EQ(report.quarantined, 2);
  EXPECT_EQ(report.not_run, 6);
  EXPECT_FALSE(report.entries.back().has_value());
  EXPECT_EQ(report.outcome, engine::RunOutcome::kBudgetExceeded);
  EXPECT_EQ(report.exit_code(), 4);
}

// ---------------------------------------------------------------------------
// Resume protocol: journaled scenarios are served, not recomputed, and
// the journal-backed studies reproduce the plain engine bit for bit
// ---------------------------------------------------------------------------

TEST(ResilientRun, ResumeServesJournaledScenariosBitIdentically) {
  const std::string path = tmp_path("journal-hpl");
  std::remove(path.c_str());
  const auto& ctx = engine::SharedContext::instance();
  const auto cfg = quick_config();
  const auto reference = fault::hpl_study(ctx.system(), ctx.topology(),
                                          study_nodes(), cfg);
  const Json params = engine::hpl_campaign_params(study_nodes(), cfg);
  {
    engine::SweepEngine eng({2});
    engine::SweepJournal journal(path, params,
                                 static_cast<int>(study_nodes().size()));
    engine::ResilientReport report;
    const auto fresh = engine::resumable_hpl_study(
        eng, ctx.system(), ctx.topology(), study_nodes(), cfg, journal, {},
        &report);
    expect_identical(reference, fresh, "journaled fresh run");
    EXPECT_EQ(report.resumed, 0);
    EXPECT_EQ(report.outcome, engine::RunOutcome::kClean);
  }
  // Second process (different thread count): everything comes from the
  // journal, decoded -- and the numbers are still bit-identical.
  engine::SweepEngine eng({7});
  engine::SweepJournal journal(path, params,
                               static_cast<int>(study_nodes().size()));
  EXPECT_TRUE(journal.resumed());
  engine::ResilientReport report;
  const auto resumed = engine::resumable_hpl_study(
      eng, ctx.system(), ctx.topology(), study_nodes(), cfg, journal, {},
      &report);
  expect_identical(reference, resumed, "journaled resumed run");
  EXPECT_EQ(report.resumed, static_cast<int>(study_nodes().size()));
  std::remove(path.c_str());
}

TEST(ResilientRun, ResumableScaleSeriesMatchesSerial) {
  const std::string path = tmp_path("journal-scale");
  std::remove(path.c_str());
  const auto serial = model::figure13_series(model::paper_node_counts());
  engine::SweepEngine eng({3});
  engine::SweepJournal journal(
      path, engine::scale_campaign_params(model::paper_node_counts(), {}),
      static_cast<int>(model::paper_node_counts().size()));
  const auto out = engine::resumable_scale_series(
      eng, model::paper_node_counts(), {}, journal);
  ASSERT_EQ(out.size(), serial.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].nodes, serial[i].nodes);
    EXPECT_TRUE(bits_eq(out[i].opteron_s, serial[i].opteron_s)) << i;
    EXPECT_TRUE(bits_eq(out[i].cell_measured_s, serial[i].cell_measured_s))
        << i;
    EXPECT_TRUE(bits_eq(out[i].cell_best_s, serial[i].cell_best_s)) << i;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Kill-and-resume: a child process crashes at a scenario boundary (the
// RR_CRASH_AFTER_N hook fires std::_Exit right after a journal fsync --
// the moral equivalent of SIGKILL), and the resumed campaign's final
// artifact is byte-identical to an uninterrupted run's.
// ---------------------------------------------------------------------------

TEST(ResilientRun, KillAndResumeProducesByteIdenticalResults) {
#ifdef RR_TSAN
  GTEST_SKIP() << "fork + threads trips TSan's die_after_fork";
#else
  const int n = 6;
  const auto fn = [](int i, const engine::CancelToken&) {
    return demo_metrics(i);
  };

  // Golden: one uninterrupted journaled run.
  const std::string golden_path = tmp_path("journal-golden");
  std::remove(golden_path.c_str());
  std::string golden;
  {
    engine::SweepEngine eng({1});
    engine::SweepJournal journal(golden_path, demo_params(), n);
    const auto report = engine::run_resilient(eng, n, fn, &journal, {});
    ASSERT_EQ(report.ok, n);
    std::ostringstream os;
    engine::write_entries_jsonl(report.entries, os);
    golden = os.str();
  }

  // Child: same campaign, crashes after two appends (via the env hook).
  const std::string path = tmp_path("journal-killed");
  std::remove(path.c_str());
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // In the child: no gtest, no return -- either the crash hook fires
    // inside append() or we report survival via a distinctive code.
    ::setenv("RR_CRASH_AFTER_N", "2", 1);
    engine::SweepEngine eng({2});
    engine::SweepJournal journal(path, demo_params(), n);
    engine::run_resilient(eng, n, fn, &journal, {});
    std::_Exit(42);  // unreachable if the hook worked
  }
  ::unsetenv("RR_CRASH_AFTER_N");
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), engine::SweepJournal::kCrashExitCode);

  // Relaunch (different thread count): the journaled scenarios are
  // skipped and the final artifact is byte-identical to the golden.
  engine::SweepEngine eng({3});
  engine::SweepJournal journal(path, demo_params(), n);
  EXPECT_TRUE(journal.resumed());
  EXPECT_EQ(journal.completed_count(), 2u);
  const auto report = engine::run_resilient(eng, n, fn, &journal, {});
  EXPECT_EQ(report.ok, n);
  EXPECT_EQ(report.resumed, 2);
  std::ostringstream os;
  engine::write_entries_jsonl(report.entries, os);
  EXPECT_EQ(os.str(), golden);
  ASSERT_EQ(os.str().size(), golden.size());
  EXPECT_EQ(std::memcmp(os.str().data(), golden.data(), golden.size()), 0);

  // The artifact writer is atomic: the file lands whole.
  const std::string out = tmp_path("resumed-out");
  ASSERT_TRUE(engine::write_entries_file(report.entries, out));
  EXPECT_EQ(read_file(out), golden);
  std::remove(out.c_str());
  std::remove(path.c_str());
  std::remove(golden_path.c_str());
#endif
}

// ---------------------------------------------------------------------------
// Shard-range runs and cross-journal merges (the campaign service's
// building blocks): a worker-written shard journal must resume bit-exactly
// in-process, and shard journals must union into the single-process bytes.
// ---------------------------------------------------------------------------

TEST(ShardRuns, CampaignHexIsStableLowercasePadded) {
  EXPECT_EQ(engine::campaign_hex(0x1fULL), "000000000000001f");
  EXPECT_EQ(engine::campaign_hex(0xDEADBEEFCAFE1234ULL), "deadbeefcafe1234");
}

TEST(ShardRuns, IndicesSubsetRunsOnlyRequestedSlots) {
  const std::string path = tmp_path("journal-subset");
  std::remove(path.c_str());
  engine::SweepEngine eng({2});
  engine::SweepJournal journal(path, demo_params(), 6);
  const auto fn = [](int i, const engine::CancelToken&) {
    return demo_metrics(i);
  };
  const auto report =
      engine::run_resilient_indices(eng, 6, {1, 3, 5}, fn, &journal, {});
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

TEST(ShardRuns, ShardJournalsMergeByteIdenticallyToFullRun) {
  const int n = 8;
  const auto fn = [](int i, const engine::CancelToken&) {
    return demo_metrics(i);
  };

  // Golden: one uninterrupted full run.
  const std::string golden_path = tmp_path("journal-merge-golden");
  std::remove(golden_path.c_str());
  std::string golden;
  {
    engine::SweepEngine eng({1});
    engine::SweepJournal journal(golden_path, demo_params(), n);
    const auto report = engine::run_resilient(eng, n, fn, &journal, {});
    ASSERT_EQ(report.ok, n);
    std::ostringstream os;
    engine::write_entries_jsonl(report.entries, os);
    golden = os.str();
  }

  // Two disjoint shards, separate campaign-scoped journals, interleaved
  // index sets (as work-stealing would leave them).
  const std::string a = tmp_path("journal-merge-a");
  const std::string b = tmp_path("journal-merge-b");
  std::remove(a.c_str());
  std::remove(b.c_str());
  {
    engine::SweepEngine eng({2});
    engine::SweepJournal ja(a, demo_params(), n);
    engine::SweepJournal jb(b, demo_params(), n);
    ASSERT_EQ(
        engine::run_resilient_indices(eng, n, {0, 3, 4, 7}, fn, &ja, {}).ok,
        4);
    ASSERT_EQ(
        engine::run_resilient_indices(eng, n, {1, 2, 5, 6}, fn, &jb, {}).ok,
        4);
  }

  const auto merged = engine::merge_journal_files(
      {a, b, tmp_path("journal-merge-missing")}, demo_params(), n);
  std::ostringstream os;
  engine::write_entries_jsonl(merged, os);
  EXPECT_EQ(os.str(), golden);

  // read_journal_entries sees one shard's slots without touching the file.
  const auto only_a = engine::read_journal_entries(a, demo_params(), n);
  EXPECT_TRUE(only_a[0].has_value());
  EXPECT_FALSE(only_a[1].has_value());
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(golden_path.c_str());
}

TEST(ShardRuns, WorkerJournalResumesBitExactlyInProcess) {
  const int n = 6;
  const auto fn = [](int i, const engine::CancelToken&) {
    return demo_metrics(i);
  };

  const std::string golden_path = tmp_path("journal-takeover-golden");
  std::remove(golden_path.c_str());
  std::string golden;
  {
    engine::SweepEngine eng({1});
    engine::SweepJournal journal(golden_path, demo_params(), n);
    const auto report = engine::run_resilient(eng, n, fn, &journal, {});
    ASSERT_EQ(report.ok, n);
    std::ostringstream os;
    engine::write_entries_jsonl(report.entries, os);
    golden = os.str();
  }

  // "Worker": journals a shard's worth of the campaign, then disappears.
  const std::string path = tmp_path("journal-takeover");
  std::remove(path.c_str());
  {
    engine::SweepEngine eng({2});
    engine::SweepJournal journal(path, demo_params(), n);
    ASSERT_EQ(
        engine::run_resilient_indices(eng, n, {0, 1, 4}, fn, &journal, {}).ok,
        3);
  }

  // In-process takeover: reopen the worker's journal, run the rest; the
  // preloaded entries are served bit-exactly, never recomputed.
  engine::SweepEngine eng({3});
  engine::SweepJournal journal(path, demo_params(), n);
  EXPECT_TRUE(journal.resumed());
  EXPECT_EQ(journal.completed_count(), 3u);
  const auto report = engine::run_resilient(eng, n, fn, &journal, {});
  EXPECT_EQ(report.ok, n);
  EXPECT_EQ(report.resumed, 3);
  std::ostringstream os;
  engine::write_entries_jsonl(report.entries, os);
  EXPECT_EQ(os.str(), golden);
  std::remove(path.c_str());
  std::remove(golden_path.c_str());
}

TEST(ShardRuns, MergeDuplicateIndexKeepsFirstPathsRecord) {
  const int n = 2;
  const std::string a = tmp_path("journal-dup-a");
  const std::string b = tmp_path("journal-dup-b");
  std::remove(a.c_str());
  std::remove(b.c_str());
  engine::JournalEntry first;
  first.index = 0;
  first.attempts = 1;
  first.seed = 7;
  first.metrics = demo_metrics(0);
  engine::JournalEntry second = first;
  second.attempts = 2;  // a retry-count divergence, as a respawn race leaves
  {
    engine::SweepJournal ja(a, demo_params(), n);
    ja.append(first);
    engine::SweepJournal jb(b, demo_params(), n);
    jb.append(second);
  }
  const auto merged = engine::merge_journal_files({a, b}, demo_params(), n);
  ASSERT_TRUE(merged[0].has_value());
  EXPECT_EQ(merged[0]->attempts, 1);  // first path wins
  const auto flipped = engine::merge_journal_files({b, a}, demo_params(), n);
  EXPECT_EQ(flipped[0]->attempts, 2);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

}  // namespace
}  // namespace rr
