// Resilient execution of a sweep batch (DESIGN.md §8).
//
// run_resilient() runs a batch of scenarios in order, in the calling
// thread, with the three protections long campaigns need:
//
//   * a per-scenario deadline -- each scenario polls a CancelToken that
//     expires a wall-clock deadline after the scenario started; one that
//     overruns bails out and is recorded `timed_out` without poisoning
//     the batch;
//   * a retry taxonomy -- transient failures retry with deterministic
//     backoff, permanent/poison failures are quarantined and the batch
//     continues;
//   * a failure budget -- once too many scenarios of this call have
//     failed, the indices left are not run and the run ends
//     kBudgetExceeded.
//
// Parallelism is not here: the campaign service (campaign/service.hpp)
// gets it from worker processes, each running its chunks through this.
//
// Durability and resume belong to the campaign coordinator
// (campaign/service.hpp), which owns the only journal: its local runner
// hands that journal to run_resilient_indices as an append sink, so each
// finished scenario is durable before the run moves on.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sweep_engine/engine.hpp"
#include "sweep_engine/journal.hpp"
#include "sweep_engine/retry.hpp"

namespace rr::engine {

/// How a resilient run ended, and the process exit code that reports it.
enum class RunOutcome { kClean, kDegraded, kBudgetExceeded };

const char* to_string(RunOutcome o);

/// fault::ExitCode contract: 0 = every scenario ok; 3 = completed but
/// degraded (timeouts and/or quarantines); 4 = aborted on the failure
/// budget (see the table in fault/taxonomy.hpp and README).
int exit_code(RunOutcome o);

/// Cooperative cancellation for one scenario: a wall-clock deadline,
/// armed when the scenario starts and shared by its retries.  The
/// scenario polls cancelled() at safe points and bails out by throwing;
/// nothing preempts a scenario that never polls.
class CancelToken {
 public:
  /// Expires `budget` from now.  A zero or negative budget is no deadline:
  /// the token never reads the clock.  A budget too large to add to the
  /// clock never expires.
  explicit CancelToken(std::chrono::milliseconds budget);

  bool cancelled() const noexcept {
    return deadline_ && std::chrono::steady_clock::now() > *deadline_;
  }

 private:
  std::optional<std::chrono::steady_clock::time_point> deadline_;
};

struct ResilientConfig {
  RetryPolicy retry{};
  /// Per-scenario wall-clock deadline; zero disables it.
  std::chrono::milliseconds deadline{0};
  /// Abort once more than this many scenarios of one call have failed
  /// (timed out or quarantined); negative = unlimited.
  int failure_budget = -1;
  /// Seed recorded in each entry; defaults to
  /// scenario_seed(base_seed, index).  Override to match a study's own
  /// derivation (e.g. fault::study_point_seed).
  std::uint64_t base_seed = 0;
  std::function<std::uint64_t(int)> seed_of;
};

/// A scenario computes its metrics object, polling `cancel` at safe
/// points and bailing out (by throwing) once it reads cancelled.
using ResilientScenario = std::function<Json(int index, const CancelToken& cancel)>;

struct ResilientReport {
  /// Entry per index; nullopt = never ran (budget abort stopped the run).
  std::vector<std::optional<JournalEntry>> entries;
  int ok = 0;
  int retried = 0;      ///< ok, but needed more than one attempt
  int timed_out = 0;
  int quarantined = 0;
  int not_run = 0;      ///< skipped by a budget abort
  RunOutcome outcome = RunOutcome::kClean;

  int exit_code() const { return engine::exit_code(outcome); }

  /// Post-run summary through RR_LOG: counts at info, one warn line per
  /// degraded scenario (index, seed, class, error), error on a budget
  /// abort -- so quarantine and degradation notices respect the log
  /// threshold and the RR_LOG_JSON sink.  Every run calls this.
  void log() const;
};

/// Run scenarios 0..n-1 in order, in the calling thread, under the
/// resilience protocol, in memory: the single-process reference a
/// campaign of any fleet shape must match.
ResilientReport run_resilient(int n, const ResilientScenario& fn,
                              const ResilientConfig& cfg = {});

/// Shard-range variant: run only `indices` (each unique, in [0, n)), in
/// the order given, of an n-scenario campaign; entries land at their
/// global index, and indices not requested stay nullopt and are not
/// counted.  `not_run` counts the requested indices a budget abort
/// skipped.
///
/// `journal`, when given, is only a sink: each finished entry is appended
/// to it before the run moves on.  It must be scoped to the whole
/// campaign (opened with `scenarios == n`) and hold none of `indices` --
/// resuming is the caller's job, and a journaled index is a caller error.
/// The campaign service runs every worker chunk through this with no
/// journal and no failure budget, and its local runner with the
/// campaign's one journal and the budget the campaign has left.
ResilientReport run_resilient_indices(int n, const std::vector<int>& indices,
                                      const ResilientScenario& fn,
                                      SweepJournal* journal,
                                      const ResilientConfig& cfg = {});

}  // namespace rr::engine
