// Driver for the sharded campaign service (DESIGN.md §11; not a paper
// figure).  Runs a Monte-Carlo interrupted-HPL campaign through
// campaign::run_campaign -- coordinator + N forked workers, one
// coordinator-written journal (work_dir/campaign.jsonl), work-stealing,
// crash respawn, and the content-addressed result cache -- and exits
// with the fault::ExitCode of the outcome (0 clean / 3 degraded /
// 4 failure-budget-exceeded; 2 for a malformed or unknown flag).
//
// CI drives it five ways (see .github/workflows/ci.yml, campaign-smoke):
//   * N workers with --crash-shard armed: that worker exits 137 once it
//     has run --crash-after scenarios, before reporting them; it is
//     respawned, and the result must be byte-identical to a 1-worker run
//     of the same campaign;
//   * the same work dir again with fewer workers: everything resumes
//     from its journal ("executed=0 resumed=24");
//   * the coordinator itself killed under --workers=0 (RR_CRASH_AFTER_N,
//     or kill -9) and its work dir resumed under another worker count;
//   * a repeat invocation with --cache-dir: served entirely from the
//     cache ("cache=hit ..."), bytes verbatim;
//   * the same campaign under --workers=0 (in-process, sanitizer-safe).
//
//   bench_campaign_service --work-dir=PATH [--cache-dir=PATH]
//       [--workers=3] [--scenarios=24] [--replications=400] [--seed=42]
//       [--chunk=4] [--budget=-1] [--deadline-ms=0] [--slow-ms=0]
//       [--slow-first=-1] [--crash-shard=-1] [--crash-after=0]
//       [--out=PATH] [--report=PATH]
//       [--trace=PATH] [--flightrec=PATH] [--fail-index=-1]
//       [--chaos-seed=0] [--chaos-rate=0.05]
//
// --slow-ms pads every scenario; --slow-first=K restricts the padding to
// scenarios with index < K, which piles the work onto the first shard and
// exercises work-stealing (the padding does not change the results --
// scenario metrics depend only on the seed).
//
// Fleet observability knobs (DESIGN.md §15): --trace is the path of the
// fleet's one Chrome trace, which the coordinator writes from the spans
// and frame times every worker ships, one row per process; --flightrec
// pins the crash flight recorder's dump path (defaults to
// work_dir/flightrec.json);
// --fail-index=K makes scenario K permanently fail, a deterministic
// degraded run that leaves a postmortem behind; --chaos-seed installs a
// seeded fault-injecting filesystem for the whole fleet.
#include <chrono>
#include <climits>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "campaign/service.hpp"
#include "fault/resilience_study.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "fault/taxonomy.hpp"
#include "sweep_engine/context.hpp"
#include "sweep_engine/studies.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/fileio.hpp"
#include "util/flightrec.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv,
                      {"work-dir", "scenarios", "replications", "seed",
                       "slow-ms", "slow-first", "workers", "chunk", "cache-dir",
                       "budget", "deadline-ms", "crash-shard", "crash-after",
                       "trace", "flightrec", "fail-index", "chaos-seed",
                       "chaos-rate", "out", "report"});
  const std::string work_dir = cli.get("work-dir", "");
  if (work_dir.empty()) {
    std::cerr << "usage: " << cli.program()
              << " --work-dir=PATH [--cache-dir=PATH] [--workers=N]"
                 " [--scenarios=N] [--replications=N] [--seed=N] [--chunk=N]"
                 " [--budget=N] [--deadline-ms=N] [--slow-ms=N]"
                 " [--slow-first=K] [--crash-shard=K]"
                 " [--crash-after=N] [--out=PATH] [--report=PATH]"
                 " [--trace=PATH] [--flightrec=PATH] [--fail-index=K]"
                 " [--chaos-seed=N] [--chaos-rate=R]\n";
    return fault::to_int(fault::ExitCode::kUsage);
  }

  const int scenarios = cli.get_int("scenarios", 24, 0, INT_MAX);
  const int replications = cli.get_int("replications", 400, 1, INT_MAX);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const auto slow =
      std::chrono::milliseconds(cli.get_int("slow-ms", 0, 0, INT_MAX));
  const int slow_first = cli.get_int("slow-first", -1, -1, INT_MAX);

  // The node grid the scenarios cycle through: partition sizes from the
  // paper's scaling studies.
  const std::vector<int> grid = {256,  512,  768,  1020, 1536,
                                 2040, 2304, 2610, 3060};

  campaign::CampaignSpec spec;
  spec.name = "bench_campaign_service";
  spec.scenarios = scenarios;
  spec.base_seed = seed;
  spec.params = Json::object();
  spec.params.set("study", "interrupted-hpl-campaign")
      .set("scenarios", scenarios)
      .set("replications", replications)
      .set("seed", static_cast<std::int64_t>(seed))
      .set("nodes",
           [&] {
             Json a = Json::array();
             for (const int nodes : grid) a.push_back(nodes);
             return a;
           }());

  campaign::ServiceConfig cfg;
  cfg.workers = cli.get_int("workers", 3, 0, INT_MAX);
  cfg.chunk = cli.get_int("chunk", 4, 1, INT_MAX);
  cfg.work_dir = work_dir;
  cfg.cache_dir = cli.get("cache-dir", "");
  cfg.resilient.failure_budget = cli.get_int("budget", -1, -1, INT_MAX);
  cfg.resilient.deadline =
      std::chrono::milliseconds(cli.get_int("deadline-ms", 0, 0, INT_MAX));
  cfg.crash_shard = cli.get_int("crash-shard", -1, -1, INT_MAX);
  cfg.crash_after = cli.get_int("crash-after", 0, 0, INT_MAX);
  cfg.trace_path = cli.get("trace", "");

  // Arm the flight recorder before the run so the ring captures campaign
  // marks and frame traffic from the first frame on; the exit path below
  // dumps it whenever the run ends degraded or worse.
  if (const std::string fr = cli.get("flightrec", ""); !fr.empty())
    FlightRecorder::global().set_dump_path(fr);

  const int fail_index = cli.get_int("fail-index", -1, -1, INT_MAX);

  // A nonzero chaos seed puts the whole fleet (workers inherit the
  // installed Env across fork) on a deterministically faulty filesystem.
  std::unique_ptr<ChaosEnv> chaos;
  const auto chaos_seed =
      static_cast<std::uint64_t>(cli.get_int("chaos-seed", 0));
  if (chaos_seed != 0) {
    ChaosConfig ccfg;
    ccfg.seed = chaos_seed;
    ccfg.fault_rate = cli.get_double("chaos-rate", 0.05);
    chaos = std::make_unique<ChaosEnv>(ccfg);
  }
  const ScopedEnv scoped_env(chaos.get());

  const auto& ctx = engine::SharedContext::instance();
  const campaign::CampaignResult result = campaign::run_campaign(
      spec,
      [&](int i, const engine::CancelToken& cancel) {
        if (i == fail_index)
          throw engine::PermanentError("injected permanent fault at index " +
                                       std::to_string(i));
        const auto pad =
            (slow_first < 0 || i < slow_first) ? slow
                                               : std::chrono::milliseconds(0);
        for (auto waited = std::chrono::milliseconds(0); waited < pad;
             waited += std::chrono::milliseconds(5)) {
          if (cancel.cancelled())
            throw engine::TransientError("cancelled during padding");
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        const int nodes = grid[static_cast<std::size_t>(i) % grid.size()];
        fault::StudyConfig scfg;
        scfg.replications = replications;
        scfg.seed = fault::study_point_seed(seed, nodes, i);
        return engine::to_json(fault::study_point(
            ctx.system(), ctx.topology(), nodes,
            fault::hpl_fault_free_s(ctx.system(), nodes), scfg));
      },
      cfg);

  print_banner(std::cout, "Sharded campaign service, " +
                              std::to_string(scenarios) + " scenarios, " +
                              std::to_string(cfg.workers) + " workers");
  Table t({"scenario", "nodes", "expected (h)", "interrupts",
           "efficiency (%)"});
  for (std::size_t i = 0; i < result.entries.size(); ++i) {
    const auto& e = result.entries[i];
    if (!e || !e->ok()) continue;
    const auto pt = engine::resilience_point_from_json(e->metrics);
    t.row()
        .add(static_cast<int>(i))
        .add(pt.nodes)
        .add(pt.simulated_s / 3600.0, 3)
        .add(pt.mean_failures, 2)
        .add(100.0 * pt.efficiency, 1);
  }
  t.print(std::cout);

  const campaign::CampaignStats& s = result.stats;
  std::cout << "\ncampaign " << result.campaign << ": "
            << engine::to_string(result.outcome) << ", " << result.ok
            << " ok, " << result.timed_out << " timed out, "
            << result.quarantined << " quarantined, " << result.not_run
            << " not run\n"
            << "cache=" << (result.cache_hit ? "hit" : "miss")
            << " executed=" << s.executed << " resumed=" << s.resumed
            << " spawned=" << s.workers_spawned << " crashes=" << s.crashes
            << " respawns=" << s.respawns << " steals=" << s.steals_granted
            << "/" << s.steal_requests << " stolen=" << s.stolen_indices
            << " cache_hits="
            << obs::MetricsRegistry::global().counter("campaign.cache.hit")
                   .value()
            << " fleet_parts=" << result.fleet.parts.size()
            << " fleet_appends="
            << [&] {
                 const obs::MetricSnapshot* m =
                     result.fleet.merged.find("journal.appends");
                 return m ? m->ivalue : 0;
               }()
            << "\n";

  if (const std::string out = cli.get("out", ""); !out.empty()) {
    if (result.write_results(out)) {
      std::cout << "wrote results to " << out << " (JSON lines, atomic)\n";
    } else {
      std::cout << "failed to write " << out << "\n";
      return fault::to_int(fault::ExitCode::kError);
    }
  }
  if (const std::string rep = cli.get("report", ""); !rep.empty()) {
    const campaign::CampaignReportBytes bytes =
        campaign::campaign_report(spec, cfg, result);
    if (write_file_atomic(rep, bytes.json) &&
        write_file_atomic(obs::RunReport::markdown_path_for(rep),
                          bytes.markdown)) {
      std::cout << "wrote report to " << rep << "\n";
    } else {
      std::cout << "failed to write " << rep << "\n";
      return fault::to_int(fault::ExitCode::kError);
    }
  }
  // Degraded-or-worse exits leave the flight-ring postmortem behind.
  return FlightRecorder::dump_on_exit(result.exit_code());
}
