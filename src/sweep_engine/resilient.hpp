// Crash-safe, resumable execution of a sweep batch (DESIGN.md §8).
//
// run_resilient() wraps the plain SweepEngine fan-out with the four
// protections long campaigns need:
//
//   * journaling -- every completed scenario is appended (fsync'd) to a
//     SweepJournal before the run moves on, so a kill at any instant
//     loses at most in-flight work; on resume, journaled indices are
//     served from disk and only the rest are recomputed, and the final
//     results file is bit-identical to an uninterrupted run's;
//   * a per-scenario watchdog -- scenarios run against a CancelToken and
//     a wall-clock deadline; one that overruns is cancelled cooperatively
//     and journaled `timed_out` without poisoning the batch;
//   * a retry taxonomy -- transient failures retry with deterministic
//     backoff, permanent/poison failures are quarantined and the batch
//     continues;
//   * a failure budget -- once too many scenarios have failed, the pool's
//     abort flag stops new work and the run ends kBudgetExceeded, with
//     everything already journaled still durable (and resumable).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
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

struct ResilientConfig {
  RetryPolicy retry{};
  /// Per-scenario wall-clock deadline; zero disables the watchdog.
  std::chrono::milliseconds deadline{0};
  /// Abort once more than this many scenarios have failed (timed out or
  /// quarantined, including failures loaded from a resumed journal);
  /// negative = unlimited.
  int failure_budget = -1;
  /// Seed recorded in each journal entry; defaults to
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
  int resumed = 0;      ///< served from the journal, not recomputed
  int not_run = 0;      ///< skipped by a budget abort
  RunOutcome outcome = RunOutcome::kClean;

  int exit_code() const { return engine::exit_code(outcome); }

  /// Post-run summary: counts, plus one line per degraded scenario with
  /// its index, seed, class, and error -- degraded runs must be visible.
  void print(std::ostream& os) const;

  /// The same summary through RR_LOG: counts at info, one warn line per
  /// degraded scenario, error on a budget abort -- so quarantine and
  /// degradation notices respect the log threshold and the RR_LOG_JSON
  /// sink.  run_resilient() calls this on every completed run.
  void log() const;
};

/// Run scenarios 0..n-1 under the resilience protocol.  `journal` may be
/// null (no durability; retry/watchdog/budget still apply).  When a
/// journal is given it must have been opened with `scenarios == n`.
ResilientReport run_resilient(SweepEngine& eng, int n,
                              const ResilientScenario& fn,
                              SweepJournal* journal,
                              const ResilientConfig& cfg = {});

/// Shard-range variant: run only `indices` (each unique, in [0, n)) of an
/// n-scenario campaign.  The campaign service runs every worker chunk
/// through it with no journal and no failure budget (the coordinator
/// journals what the worker reports and owns the campaign-wide budget),
/// and its own local runner with the campaign's one journal, which stays
/// scoped to the whole campaign (opened with `scenarios == n`, entries
/// land at their global index).
///
/// Every journaled entry -- inside or outside `indices` -- is preloaded
/// into the report and counted (the failure budget is a property of the
/// campaign, not of one call); `not_run` counts only requested indices a
/// budget abort skipped.  Indices neither requested nor journaled stay
/// nullopt and are not counted.
ResilientReport run_resilient_indices(SweepEngine& eng, int n,
                                      const std::vector<int>& indices,
                                      const ResilientScenario& fn,
                                      SweepJournal* journal,
                                      const ResilientConfig& cfg = {});

/// The campaign's final artifact: one compact JSON line per completed
/// entry in index order.  Because entries hold no wall-clock state and
/// numbers round-trip bit-exactly, this is byte-identical between an
/// uninterrupted run and any kill-and-resume chain of the same campaign.
void write_entries_jsonl(const std::vector<std::optional<JournalEntry>>& entries,
                         std::ostream& os);
/// write_entries_jsonl to `path` via an atomic temp+rename snapshot.
bool write_entries_file(const std::vector<std::optional<JournalEntry>>& entries,
                        const std::string& path);

}  // namespace rr::engine
