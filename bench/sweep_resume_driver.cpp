// Kill-and-resume driver for the crash-safe sweep runtime (DESIGN.md §8).
//
// Runs a journaled interrupted-HPL resilience sweep and exits with the
// run outcome (0 clean / 3 degraded / 4 failure-budget-exceeded), which
// makes it the process-level fault-injection harness for CI: start it,
// SIGKILL it mid-flight (or arm RR_CRASH_AFTER_N / --crash-after to die
// deterministically at a scenario boundary), relaunch with the same
// arguments, and the resumed run skips journaled scenarios and writes a
// results file byte-identical to an uninterrupted run's.
//
//   sweep_resume_driver --journal=PATH [--out=PATH]
//       [--nodes=768,1536,2304,3060] [--replications=3000] [--seed=N]
//       [--threads=0] [--deadline-ms=0] [--budget=-1] [--max-attempts=3]
//       [--slow-ms=0]           pad each scenario (cancellation-aware);
//                               gives a SIGKILL test time to land
//       [--crash-after=N]       die after the Nth journal append
//       [--fail-transient=I]    scenario I throws TransientError on its
//                               first attempt (retry taxonomy demo)
//       [--fail-permanent=I]    scenario I always throws (quarantine demo)
#include <atomic>
#include <chrono>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "fault/resilience_study.hpp"
#include "fault/taxonomy.hpp"
#include "sweep_engine/studies.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

std::vector<int> parse_nodes(const std::string& csv) {
  std::vector<int> out;
  std::istringstream is(csv);
  std::string tok;
  while (std::getline(is, tok, ',')) out.push_back(std::stoi(tok));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv,
                      {"journal", "nodes", "replications", "seed",
                       "deadline-ms", "budget", "max-attempts", "slow-ms",
                       "fail-transient", "fail-permanent", "threads",
                       "crash-after", "out"});
  const std::string journal_path = cli.get("journal", "");
  if (journal_path.empty()) {
    std::cerr << "usage: " << cli.program()
              << " --journal=PATH [--out=PATH] [--nodes=a,b,c]"
                 " [--replications=N] [--seed=N] [--threads=N]"
                 " [--deadline-ms=N] [--budget=N] [--max-attempts=N]"
                 " [--slow-ms=N] [--crash-after=N]"
                 " [--fail-transient=I] [--fail-permanent=I]\n";
    return fault::to_int(fault::ExitCode::kUsage);
  }

  const std::vector<int> node_counts =
      parse_nodes(cli.get("nodes", "768,1536,2304,3060"));
  fault::StudyConfig cfg;
  cfg.replications = static_cast<int>(cli.get_int("replications", 3000));
  cfg.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(cfg.seed)));

  engine::ResilientConfig rcfg;
  rcfg.deadline = std::chrono::milliseconds(cli.get_int("deadline-ms", 0));
  rcfg.failure_budget = static_cast<int>(cli.get_int("budget", -1));
  rcfg.retry.max_attempts = static_cast<int>(cli.get_int("max-attempts", 3));
  const auto slow = std::chrono::milliseconds(cli.get_int("slow-ms", 0));
  const int fail_transient = static_cast<int>(cli.get_int("fail-transient", -1));
  const int fail_permanent = static_cast<int>(cli.get_int("fail-permanent", -1));

  const auto& ctx = engine::SharedContext::instance();
  engine::SweepEngine eng({static_cast<int>(cli.get_int("threads", 0))});
  engine::SweepJournal journal(journal_path,
                               engine::hpl_campaign_params(node_counts, cfg),
                               static_cast<int>(node_counts.size()));
  if (const auto crash_after = cli.get_int("crash-after", 0); crash_after > 0)
    journal.set_crash_after(static_cast<int>(crash_after));
  if (journal.resumed())
    std::cout << "resuming: " << journal.completed_count() << "/"
              << journal.scenarios() << " scenarios already journaled"
              << (journal.tail_recovered() ? " (torn tail recovered)" : "")
              << "\n";

  // One transient failure per arranged index, at most: first attempt
  // throws, the retry succeeds -- metrics are computed after the fault
  // injection point, so a retried scenario's record is unchanged.
  std::atomic<bool> transient_armed{fail_transient >= 0};

  rcfg.seed_of = [&](int i) {
    return fault::study_point_seed(cfg.seed,
                                   node_counts[static_cast<std::size_t>(i)], 0);
  };
  const engine::ResilientReport report = engine::run_resilient(
      eng, static_cast<int>(node_counts.size()),
      [&](int i, const engine::CancelToken& cancel) {
        // Cancellation-aware padding so a watchdog or SIGKILL test has a
        // window to land while the scenario is "running".
        for (auto waited = std::chrono::milliseconds(0); waited < slow;
             waited += std::chrono::milliseconds(5)) {
          if (cancel.cancelled())
            throw engine::TransientError("cancelled during padding");
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (i == fail_transient &&
            transient_armed.exchange(false, std::memory_order_acq_rel))
          throw engine::TransientError("injected transient fault");
        if (i == fail_permanent)
          throw engine::PermanentError("injected permanent fault");
        const int nodes = node_counts[static_cast<std::size_t>(i)];
        return engine::to_json(fault::study_point(
            ctx.system(), ctx.topology(), nodes,
            fault::hpl_fault_free_s(ctx.system(), nodes), cfg));
      },
      &journal, rcfg);

  print_banner(std::cout, "Journaled interrupted-HPL sweep, " +
                              std::to_string(node_counts.size()) +
                              " scenarios");
  Table t({"nodes", "expected (h)", "interrupts", "efficiency (%)"});
  for (const auto& e : report.entries) {
    if (!e || !e->ok()) continue;
    const auto pt = engine::resilience_point_from_json(e->metrics);
    t.row()
        .add(pt.nodes)
        .add(pt.simulated_s / 3600.0, 3)
        .add(pt.mean_failures, 2)
        .add(100.0 * pt.efficiency, 1);
  }
  t.print(std::cout);
  std::cout << "\n";
  report.print(std::cout);

  if (const std::string out = cli.get("out", ""); !out.empty()) {
    if (engine::write_entries_file(report.entries, out))
      std::cout << "wrote results to " << out << " (JSON lines, atomic)\n";
    else {
      std::cout << "failed to write " << out << "\n";
      return fault::to_int(fault::ExitCode::kError);
    }
  }
  return report.exit_code();
}
