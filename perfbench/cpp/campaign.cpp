// campaign: campaign::run_campaign over the interrupted-HPL campaign that
// bench_campaign_service runs, at 2,000 scenarios x 20 Monte-Carlo
// replications with 3 forked workers.  Each scenario is ~0.3 ms of model
// work, so forking, frames, journaling and merging dominate; the re-query
// of the same campaign measures the result cache's read path.
//
// A round is one cold query (fresh work and cache directories: miss,
// execute, journal, publish) followed by one re-query that must be a
// cache hit serving identical bytes.  Rounds run with journal syncs
// elided (NoSyncEnv below).  The traced run first times untraced rounds,
// then rounds that time each scenario's model work into fleet histograms
// and write a merged Perfetto trace of every process, then one round on
// the real disk for the sync latency.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "arch/spec.hpp"
#include "campaign/service.hpp"
#include "common.hpp"
#include "fault/resilience_study.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "sweep_engine/result_store.hpp"
#include "topo/fat_tree.hpp"
#include "util/env.hpp"
#include "util/flightrec.hpp"

namespace rr::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kScenarios = 2000;
constexpr int kReplications = 20;
constexpr int kWorkers = 3;
constexpr int kChunk = 4;

// Partition sizes from the paper's scaling studies, cycled as
// bench_campaign_service cycles them.
const std::vector<int> kNodeGrid = {256, 512, 768, 1020, 1536, 2040, 2304, 2610, 3060};

// Fleet metric names written by the traced rounds' scenario function.
constexpr const char* kHplUs = "perfbench.model.hpl_us";
constexpr const char* kStudyUs = "perfbench.fault.study_point_us";
constexpr const char* kScenarioS = "perfbench.scenario_s";

/// The real filesystem without durability: fsync and fdatasync return at
/// once.  The journal syncs once per scenario, and on a shared virtual
/// disk those syncs make a cold query's wall time follow other tenants'
/// I/O (run medians spread 30-70% with them, far past any usable bound).
/// The untraced rounds that job_s gates on run on this environment; the
/// traced rounds keep the real syncs and report their latency.
class NoSyncEnv : public Env {
 public:
  int fsync(int) override { return 0; }
  int fdatasync(int) override { return 0; }
};

/// 1.15x geometric buckets from 1 us to 10 s: fine enough for p50/p99 of
/// sub-millisecond scenario phases.
std::vector<double> fine_bounds_us() {
  std::vector<double> b;
  for (double x = 1.0; x < 1e7; x *= 1.15) b.push_back(x);
  return b;
}

double ms_percentile(const obs::Snapshot& s, const char* name, double p) {
  const obs::MetricSnapshot* m = s.find(name);
  return m ? obs::histogram_percentile(*m, p) / 1000.0 : 0.0;
}

}  // namespace

void run_campaign_workload(const Options& o, Result& r) {
  const fs::path root = fs::path(o.out_dir) / "work" / std::to_string(::getpid());
  FlightRecorder::global().set_dump_path((root / "flightrec.json").string());

  // Set-up: the machine spec and 17-CU fat tree the scenarios price, and
  // the run's scratch directory.
  HostSpeed speed;
  const arch::SystemSpec system = arch::make_roadrunner();
  const topo::FatTree tree = topo::FatTree::roadrunner();
  std::optional<arch::SystemSpec> scratch_system;
  std::optional<topo::FatTree> scratch_tree;
  SetupClock setup(speed, [&] {
    scratch_tree.reset();  // free the last build first: every repetition allocates alike
    scratch_system.emplace(arch::make_roadrunner());
    scratch_tree.emplace(topo::FatTree::roadrunner());
    fs::create_directories(root);
  });
  setup.tick();

  campaign::CampaignSpec spec;
  spec.name = "perfbench-campaign";
  spec.scenarios = kScenarios;
  spec.base_seed = o.seed;
  Json grid = Json::array();
  for (const int nodes : kNodeGrid) grid.push_back(nodes);
  spec.params = Json::object();
  spec.params.set("study", "interrupted-hpl-campaign")
      .set("scenarios", kScenarios)
      .set("replications", kReplications)
      .set("seed", std::to_string(o.seed))
      .set("nodes", std::move(grid));

  // Registered only for the traced rounds: the handles survive fork (each
  // worker resets its inherited registry) and ship in the stats frames.
  obs::Histogram* hpl_us = nullptr;
  obs::Histogram* study_us = nullptr;
  obs::Gauge* scenario_s = nullptr;
  const auto scenario = [&](int i, const engine::CancelToken&) {
    const int nodes = kNodeGrid[static_cast<std::size_t>(i) % kNodeGrid.size()];
    const double t0 = wall_s();
    const double fault_free = fault::hpl_fault_free_s(system, nodes);
    const double t1 = wall_s();
    fault::StudyConfig cfg;
    cfg.replications = kReplications;
    cfg.seed = fault::study_point_seed(o.seed, nodes, i);
    Json out = engine::to_json(fault::study_point(system, tree, nodes, fault_free, cfg));
    if (hpl_us != nullptr) {
      const double t2 = wall_s();
      hpl_us->observe((t1 - t0) * 1e6);
      study_us->observe((t2 - t1) * 1e6);
      scenario_s->add(t2 - t0);
    }
    return out;
  };

  struct Round {
    double cold_s = 0.0;
    double cold_scaled_s = 0.0;  ///< cold_s at nominal host speed
    double hit_s = 0.0;
    campaign::CampaignResult cold;
  };
  int rounds_run = 0;
  // One cold query plus its cache-hit re-query, checked; nullopt if either threw.
  const auto round = [&](bool traced) -> std::optional<Round> {
    const fs::path dir = root / ("round-" + std::to_string(rounds_run++));
    campaign::ServiceConfig cfg;
    cfg.workers = kWorkers;
    cfg.chunk = kChunk;
    cfg.work_dir = (dir / "work").string();
    cfg.cache_dir = (dir / "cache").string();
    if (traced) cfg.trace_path = (fs::path(o.out_dir) / "traces" / "campaign-fleet.json").string();
    std::optional<Round> out;
    try {
      obs::MetricsRegistry::global().reset();
      Round rd;
      obs::ProfSpan cold_span("campaign/cold_query");
      rd.cold = campaign::run_campaign(spec, scenario, cfg);
      rd.cold_s = cold_span.stop() * 1e-6;
      rd.cold_scaled_s = speed.scale(rd.cold_s);
      r.op(rd.cold.exit_code() == 0 && !rd.cold.cache_hit && rd.cold.ok == kScenarios,
           "cold query: exit " + std::to_string(rd.cold.exit_code()) + ", " +
               std::to_string(rd.cold.ok) + "/" + std::to_string(kScenarios) + " ok, cache " +
               (rd.cold.cache_hit ? "hit" : "miss"));

      campaign::ServiceConfig again = cfg;
      again.work_dir = (dir / "requery").string();
      again.trace_path.clear();
      obs::ProfSpan hit_span("campaign/cache_hit");
      const campaign::CampaignResult hit = campaign::run_campaign(spec, scenario, again);
      rd.hit_s = hit_span.stop() * 1e-6;
      r.op(hit.exit_code() == 0 && hit.cache_hit && hit.result_bytes == rd.cold.result_bytes,
           std::string("re-query: ") + (hit.cache_hit ? "hit" : "miss") +
               (hit.result_bytes == rd.cold.result_bytes ? ", same bytes"
                                                         : ", bytes differ from the cold run"));
      out = std::move(rd);
    } catch (const std::exception& e) {
      r.op(false, std::string("campaign round threw: ") + e.what());
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
    setup.tick();
    return out;
  };

  std::vector<double> cold_s, scaled_s, hit_s;
  std::optional<campaign::CampaignResult> first;
  const auto keep = [&](std::optional<Round> rd, std::vector<double>& cold) {
    if (!rd) return;
    cold.push_back(rd->cold_s);
    hit_s.push_back(rd->hit_s);
    if (!first) {
      first = std::move(rd->cold);
    } else {
      r.check(rd->cold.result_bytes == first->result_bytes,
              "cold result bytes differ between rounds of one seed");
    }
  };

  const double start = wall_s();
  // Untraced rounds: all of an untraced run, the first third of a traced one.
  {
    NoSyncEnv no_sync;
    const ScopedEnv scoped(&no_sync);
    for (RunClock clock(o.trace ? o.seconds / 3.0 : o.seconds); clock.more();) {
      std::optional<Round> rd = round(false);
      if (!rd) break;  // a failed round: do not spin
      scaled_s.push_back(rd->cold_scaled_s);
      keep(std::move(rd), cold_s);
    }
  }

  // The fault layer's own model gap: each scenario's 20-replication
  // Monte-Carlo DES mean vs the Young/Daly closed form.  The mean over
  // scenarios, and the largest mean over one partition size (a max over
  // single scenarios would follow the seed's extremes).
  std::vector<double> gap_sum(kNodeGrid.size(), 0.0);
  std::vector<int> gap_n(kNodeGrid.size(), 0);
  if (first)
    for (const auto& e : first->entries)
      if (e && e->ok()) {
        const std::size_t g = static_cast<std::size_t>(e->index) % kNodeGrid.size();
        gap_sum[g] += engine::resilience_point_from_json(e->metrics).model_error();
        ++gap_n[g];
      }
  double gap_total = 0.0, gap_max = 0.0;
  int scored = 0;
  for (std::size_t g = 0; g < kNodeGrid.size(); ++g) {
    gap_total += gap_sum[g];
    scored += gap_n[g];
    if (gap_n[g] > 0) gap_max = std::max(gap_max, gap_sum[g] / gap_n[g]);
  }
  r.check(scored == kScenarios, "scenario results missing");
  const double gap_mean = scored > 0 ? gap_total / scored : 0.0;

  std::cout << "  " << kScenarios << " scenarios x " << kReplications
            << " replications over nodes 256..3060, " << kWorkers << " workers, chunk "
            << kChunk << ", seed " << o.seed << "\n";
  if (!o.trace) {
    const Timing cold = summarize(scaled_s);
    r.metrics["setup_s"] = setup.median_s();
    r.metrics["job_s"] = cold.median;
    r.metrics["peak_rss_mb"] = peak_rss_mb();
    r.metrics["model_err"] = gap_mean;
    r.metrics["model_err_max"] = gap_max;
    report(std::cout, "setup_s", fixed(setup.median_s(), 6) + " s",
           "median set-up at nominal host speed: machine spec + fat tree + work dir");
    report(std::cout, "campaign_s", describe(cold, "s"),
           "cold query at nominal host speed, reported as job_s");
    report(std::cout, "campaign_s (raw)", describe(summarize(cold_s), "s"),
           "host slowdown median " + fixed(median(speed.slowdowns()), 3));
    report(std::cout, "cache_hit_s", describe(summarize(hit_s), "s"), "re-query from the cache");
    report(std::cout, "peak_rss_mb", fixed(r.metrics["peak_rss_mb"], 1) + " MB",
           "coordinator process");
    report(std::cout, "fault model gap",
           "mean " + fixed(gap_mean, 4) + ", max " + fixed(gap_max, 4) + " ratio",
           "|Monte-Carlo - Young/Daly| / Young/Daly per scenario; max over partition "
           "sizes; model_err, model_err_max");
  } else {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    hpl_us = &reg.histogram(kHplUs, fine_bounds_us());
    study_us = &reg.histogram(kStudyUs, fine_bounds_us());
    scenario_s = &reg.gauge(kScenarioS);
    std::vector<double> traced_s, hpl50, hpl99, study50, study99, work_s, steals, spawned;
    {
      NoSyncEnv no_sync;
      const ScopedEnv scoped(&no_sync);
      for (RunClock clock(o.seconds - (wall_s() - start)); clock.more();) {
        std::optional<Round> rd = round(true);
        if (!rd) break;
        const obs::Snapshot& fleet = rd->cold.fleet.merged;
        hpl50.push_back(ms_percentile(fleet, kHplUs, 50));
        hpl99.push_back(ms_percentile(fleet, kHplUs, 99));
        study50.push_back(ms_percentile(fleet, kStudyUs, 50));
        study99.push_back(ms_percentile(fleet, kStudyUs, 99));
        const obs::MetricSnapshot* work = fleet.find(kScenarioS);
        work_s.push_back(work ? work->value : 0.0);
        steals.push_back(rd->cold.stats.steals_granted);
        spawned.push_back(rd->cold.stats.workers_spawned);
        keep(std::move(rd), traced_s);
      }
    }
    // One round on the real disk, with the journal syncs the rounds above
    // skip.  The fsync histogram is absent, not a failure, if a later
    // change renames it.
    double synced_s = 0.0;
    const obs::MetricSnapshot* fsync = nullptr;
    const std::optional<Round> synced = round(false);
    if (synced) {
      synced_s = synced->cold_s;
      fsync = synced->cold.fleet.merged.find("journal.fsync_us");
      r.check(!first || synced->cold.result_bytes == first->result_bytes,
              "synced cold query bytes differ from the unsynced rounds'");
    }
    auto& m = r.metrics;
    m["model.hpl_ms_p50"] = median(hpl50);
    m["model.hpl_ms_p99"] = median(hpl99);
    m["fault.study_point_ms_p50"] = median(study50);
    m["fault.study_point_ms_p99"] = median(study99);
    // The coordinator's serial path: what the cold query costs beyond the
    // scenario work its workers share.
    m["campaign.overhead_s"] = median(cold_s) - median(work_s) / kWorkers;
    m["campaign.cache_hit_s"] = median(hit_s);
    m["campaign.steals"] = median(steals);
    m["campaign.workers_spawned"] = median(spawned);
    m["campaign.synced_s"] = synced_s;
    m["sweep_engine.fsync_us_p50"] = fsync ? obs::histogram_percentile(*fsync, 50) : 0.0;
    m["sweep_engine.fsync_us_p99"] = fsync ? obs::histogram_percentile(*fsync, 99) : 0.0;
    m["trace.job_s"] = median(traced_s);
    m["trace.overhead_s"] = m["trace.job_s"] - median(cold_s);
    m["host.slowdown"] = median(speed.slowdowns());
    report(std::cout, "campaign_s (untraced)", describe(summarize(cold_s), "s"));
    report(std::cout, "campaign_s (traced)", describe(summarize(traced_s), "s"),
           "overhead " + fixed(m["trace.overhead_s"], 4) + " s");
    report(std::cout, "scenario model work", fixed(median(work_s), 4) + " s per campaign",
           "hpl p50/p99 " + fixed(m["model.hpl_ms_p50"], 3) + "/" +
               fixed(m["model.hpl_ms_p99"], 3) + " ms, study_point p50/p99 " +
               fixed(m["fault.study_point_ms_p50"], 3) + "/" +
               fixed(m["fault.study_point_ms_p99"], 3) + " ms");
    report(std::cout, "campaign.overhead_s", fixed(m["campaign.overhead_s"], 4) + " s",
           "cold query minus scenario work / " + std::to_string(kWorkers));
    report(std::cout, "campaign_s (real syncs)", fixed(synced_s, 4) + " s", "one round");
    report(std::cout, "journal fsync",
           fsync ? "p50 " + fixed(m["sweep_engine.fsync_us_p50"], 1) + " us, p99 " +
                            fixed(m["sweep_engine.fsync_us_p99"], 1) + " us"
                      : std::string("absent"),
           "fleet-merged journal.fsync_us");
    report(std::cout, "workers / steals",
           fixed(m["campaign.workers_spawned"], 0) + " spawned, " +
               fixed(m["campaign.steals"], 1) + " steals granted (median)");
  }
  std::error_code ec;
  fs::remove_all(root, ec);
}

}  // namespace rr::perfbench
