// Campaign-level chaos fuzzer (DESIGN.md §13; not a paper figure).
//
// Runs the same deterministic campaign through campaign::run_campaign
// once fault-free (the reference), then once per seeded fault schedule
// with a ChaosEnv installed -- every open/write/fsync/rename the
// journal, result store, and cache perform can fail with ENOSPC, EIO,
// short and torn writes, EMFILE, failed renames, or bit-flipped reads.
// Schedules alternate between in-process (workers=0) and a forked
// 2-worker fleet (the installed environment is inherited across fork,
// so the whole fleet runs under the same chaos).
//
// Invariants asserted per schedule, differentially against the
// reference:
//   * no crash: run_campaign returns; an escaped exception is a FAIL;
//   * no hang: the run finishes (the fleet watchdog bounds a wedged
//     fleet; CI additionally bounds the whole driver);
//   * exit-code contract: the outcome maps to fault::ExitCode 0/3/4 and
//     nothing else;
//   * byte-identity on every outcome but budget-exceeded: a clean run
//     and a degraded one alike must produce bytes identical to the
//     fault-free reference -- a journal that lost durability costs the
//     run its clean exit, never results (the scenarios never fail, so
//     no schedule should exceed the budget);
//   * no partial cache entry: after every schedule the cache holds
//     either nothing or a complete entry that revalidates (checked with
//     faults off) and serves the reference bytes.
//
// Failing schedule seeds are printed (one `FAIL schedule seed=` line
// each) so a red CI run is reproducible with --schedules=1 --seed=N.
//
//   chaos_driver --work-dir=PATH [--schedules=100] [--seed=3301]
//       [--scenarios=12] [--workers=2] [--fault-rate=0.08]
//       [--read-corrupt-rate=0.02] [--max-faults=6] [--unbounded-every=10]
#include <sys/stat.h>

#include <chrono>
#include <climits>
#include <iostream>
#include <string>

#include "campaign/cache.hpp"
#include "campaign/service.hpp"
#include "fault/taxonomy.hpp"
#include "obs/metrics.hpp"
#include "sweep_engine/journal.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/fileio.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace rr;

/// Deterministic toy scenario: fast, seed-derived, with non-terminating
/// binary fractions so byte-identity is a real check.
Json scenario_metrics(std::uint64_t base_seed, int i) {
  Rng rng(engine::scenario_seed(base_seed, static_cast<std::uint64_t>(i)));
  Json o = Json::object();
  o.set("x", Json(rng.next_double() / 3.0));
  o.set("y", Json(rng.next_double() * 1e-7));
  o.set("z", Json(rng.next_double() * 3.0));
  return o;
}

bool dir_exists(const std::string& path) {
  struct ::stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace

int main(int argc, char** argv) {
  const CliParser cli(argc, argv,
                      {"work-dir", "schedules", "seed", "scenarios", "workers",
                       "fault-rate", "read-corrupt-rate", "max-faults",
                       "unbounded-every"});
  const std::string work_dir = cli.get("work-dir", "");
  if (work_dir.empty()) {
    std::cerr << "usage: " << cli.program()
              << " --work-dir=PATH [--schedules=100] [--seed=3301]"
                 " [--scenarios=12] [--workers=2] [--fault-rate=0.08]"
                 " [--read-corrupt-rate=0.02] [--max-faults=6]"
                 " [--unbounded-every=10]\n";
    return fault::to_int(fault::ExitCode::kUsage);
  }
  const int schedules = cli.get_int("schedules", 100, 0, INT_MAX);
  const auto base_seed = static_cast<std::uint64_t>(cli.get_int("seed", 3301));
  const int scenarios = cli.get_int("scenarios", 12, 1, INT_MAX);
  const int fleet_workers = cli.get_int("workers", 2, 0, INT_MAX);
  const double fault_rate = cli.get_double("fault-rate", 0.08);
  const double read_corrupt_rate = cli.get_double("read-corrupt-rate", 0.02);
  const int max_faults = cli.get_int("max-faults", 6, -1, INT_MAX);
  // Every Nth schedule runs with an unlimited fault budget: mostly
  // unrecoverable, exercising the degraded half of the contract hard.
  const int unbounded_every = cli.get_int("unbounded-every", 10, 0, INT_MAX);

  campaign::CampaignSpec spec;
  spec.name = "chaos_driver";
  spec.scenarios = scenarios;
  spec.base_seed = 0x9e37ULL;
  spec.params = Json::object();
  spec.params.set("study", "chaos-fuzz").set("scenarios", scenarios)
      .set("seed", static_cast<std::int64_t>(spec.base_seed));
  const std::uint64_t campaign = engine::campaign_hash(spec.params);
  const engine::ResilientScenario fn =
      [&spec](int i, const engine::CancelToken&) {
        return scenario_metrics(spec.base_seed, i);
      };

  // Fault-free reference bytes (in-process; the fleet shape does not
  // change the bytes -- that is campaign_test's invariant, not ours).
  campaign::ServiceConfig ref_cfg;
  ref_cfg.workers = 0;
  ref_cfg.work_dir = work_dir + "/reference";
  const std::string reference =
      campaign::run_campaign(spec, fn, ref_cfg).result_bytes;
  if (reference.empty()) {
    std::cerr << "chaos_driver: fault-free reference run produced no bytes\n";
    return fault::to_int(fault::ExitCode::kError);
  }

  print_banner(std::cout,
               "Chaos fuzzer: " + std::to_string(schedules) + " schedules x " +
                   std::to_string(scenarios) + " scenarios, workers 0/" +
                   std::to_string(fleet_workers) + " alternating");

  int clean = 0, degraded = 0, budget = 0, failures = 0;
  std::uint64_t injected_total = 0, ops_total = 0;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  for (int k = 0; k < schedules; ++k) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(k);
    const std::string dir = work_dir + "/s" + std::to_string(seed);
    campaign::ServiceConfig cfg;
    // Alternate fleet shapes: even schedules in-process (sanitizer-safe,
    // counters visible in this process), odd ones a forked 2-worker
    // fleet inheriting the installed chaos environment.
    cfg.workers = (k % 2 == 0) ? 0 : fleet_workers;
    cfg.chunk = 2;
    cfg.fleet_deadline = std::chrono::milliseconds(20'000);
    cfg.work_dir = dir + "/work";
    cfg.cache_dir = dir + "/cache";

    ChaosConfig ccfg;
    ccfg.seed = seed;
    ccfg.fault_rate = fault_rate;
    ccfg.read_corrupt_rate = read_corrupt_rate;
    ccfg.max_faults = (unbounded_every > 0 && k % unbounded_every == 0)
                          ? -1
                          : max_faults;
    ChaosEnv chaos(ccfg);

    bool failed = false;
    campaign::CampaignResult result;
    try {
      ScopedEnv scope(&chaos);
      result = campaign::run_campaign(spec, fn, cfg);
    } catch (const std::exception& e) {
      std::cout << "FAIL schedule seed=" << seed << " workers=" << cfg.workers
                << ": escaped exception: " << e.what() << "\n";
      failed = true;
    }

    injected_total += chaos.stats().injected.load();
    ops_total += chaos.stats().ops.load();

    if (!failed) {
      const int code = result.exit_code();
      if (code != fault::to_int(fault::ExitCode::kBudgetExceeded) &&
          result.result_bytes != reference) {
        std::cout << "FAIL schedule seed=" << seed << " workers=" << cfg.workers
                  << ": " << engine::to_string(result.outcome)
                  << " outcome but bytes differ from the fault-free"
                     " reference\n";
        failed = true;
      }
      if (result.outcome == engine::RunOutcome::kClean) {
        ++clean;
      } else if (code == fault::to_int(fault::ExitCode::kDegraded)) {
        ++degraded;
      } else if (code ==
                 fault::to_int(fault::ExitCode::kBudgetExceeded)) {
        ++budget;
      } else {
        std::cout << "FAIL schedule seed=" << seed << " workers=" << cfg.workers
                  << ": outcome maps to exit code " << code
                  << ", outside the 0/3/4 contract\n";
        failed = true;
      }
    }

    // No-partial-cache-entry invariant, checked with faults off: the
    // entry directory either does not exist or revalidates and serves
    // the reference bytes.
    campaign::ResultCache cache(cfg.cache_dir);
    if (dir_exists(cache.entry_dir(campaign))) {
      const auto hit = cache.lookup(campaign, spec.params);
      if (!hit) {
        std::cout << "FAIL schedule seed=" << seed << " workers=" << cfg.workers
                  << ": cache entry exists but does not revalidate"
                     " (partial publish escaped)\n";
        failed = true;
      } else if (hit->result_bytes != reference) {
        std::cout << "FAIL schedule seed=" << seed << " workers=" << cfg.workers
                  << ": cache entry serves bytes differing from the"
                     " reference\n";
        failed = true;
      }
    }
    if (failed) ++failures;
  }

  // Mirror the environment's ground truth into the metrics the report
  // layer and CI assert on (util cannot link obs, so ChaosEnv counts in
  // plain atomics and the driver bridges).
  reg.counter("io.fault.injected").add(injected_total);

  Table t({"schedules", "clean", "degraded", "budget", "failures"});
  t.row().add(schedules).add(clean).add(degraded).add(budget).add(failures);
  t.print(std::cout);
  std::cout << "\nchaos: ops=" << ops_total << " injected=" << injected_total
            << " io.fault.injected=" << reg.counter("io.fault.injected").value()
            << " io.fault.retried=" << reg.counter("io.fault.retried").value()
            << " io.fault.degraded=" << reg.counter("io.fault.degraded").value()
            << " journal.corrupt=" << reg.counter("journal.corrupt").value()
            << " cache.corrupt="
            << reg.counter("campaign.cache.corrupt").value() << "\n";

  if (failures > 0) {
    std::cout << failures << " schedule(s) violated the chaos contract; "
              << "reproduce with --schedules=1 --seed=<printed seed>\n";
    return fault::to_int(fault::ExitCode::kError);
  }
  std::cout << "all " << schedules << " schedules honored the contract "
            << "(byte-identical results, failures degraded cleanly)\n";
  return fault::to_int(fault::ExitCode::kClean);
}
