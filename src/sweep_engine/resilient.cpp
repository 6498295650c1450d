#include "sweep_engine/resilient.hpp"

#include <algorithm>
#include <thread>

#include "obs/metrics.hpp"
#include "util/expect.hpp"
#include "util/log.hpp"

namespace rr::engine {

namespace {

// Retry-taxonomy instrumentation (DESIGN.md §10): every terminal status
// and every retry/backoff is counted.
struct SweepMetrics {
  obs::Counter& ok;
  obs::Counter& retries;
  obs::Counter& timeouts;
  obs::Counter& quarantined;
  obs::Counter& budget_aborts;
  obs::Histogram& backoff_us;

  static SweepMetrics& instance() {
    auto& reg = obs::MetricsRegistry::global();
    static SweepMetrics m{reg.counter("sweep.ok"),
                          reg.counter("sweep.retries"),
                          reg.counter("sweep.timeouts"),
                          reg.counter("sweep.quarantined"),
                          reg.counter("sweep.budget_aborts"),
                          reg.histogram("sweep.backoff_us",
                                        obs::latency_bounds_us())};
    return m;
  }
};

}  // namespace

CancelToken::CancelToken(std::chrono::milliseconds budget) {
  if (budget.count() <= 0) return;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  // Compare in milliseconds: converting a huge budget to the clock's
  // nanoseconds, or adding it to now, would overflow.
  if (budget >= std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::time_point::max() - now))
    return;
  deadline_ = now + budget;
}

const char* to_string(RunOutcome o) {
  switch (o) {
    case RunOutcome::kClean: return "clean";
    case RunOutcome::kDegraded: return "degraded";
    case RunOutcome::kBudgetExceeded: return "failure-budget-exceeded";
  }
  return "?";
}

int exit_code(RunOutcome o) {
  switch (o) {
    case RunOutcome::kClean: return fault::to_int(fault::ExitCode::kClean);
    case RunOutcome::kDegraded:
      return fault::to_int(fault::ExitCode::kDegraded);
    case RunOutcome::kBudgetExceeded:
      return fault::to_int(fault::ExitCode::kBudgetExceeded);
  }
  return fault::to_int(fault::ExitCode::kError);
}

void ResilientReport::log() const {
  RR_INFO("sweep summary: " << entries.size() << " scenarios: " << ok
                            << " ok (" << retried << " retried), " << timed_out
                            << " timed out, " << quarantined << " quarantined, "
                            << not_run << " not run; outcome "
                            << to_string(outcome));
  for (const auto& e : entries) {
    if (!e || e->ok()) continue;
    RR_WARN(to_string(e->status)
            << ": index " << e->index << " seed " << e->seed << " class "
            << fault::to_string(e->error_class) << " after " << e->attempts
            << (e->attempts == 1 ? " attempt" : " attempts") << ": "
            << e->error);
  }
  if (outcome == RunOutcome::kBudgetExceeded)
    RR_ERROR("sweep aborted: failure budget exceeded after "
             << timed_out + quarantined << " failures");
}

ResilientReport run_resilient(int n, const ResilientScenario& fn,
                              const ResilientConfig& cfg) {
  std::vector<int> indices(static_cast<std::size_t>(std::max(n, 0)));
  for (int i = 0; i < n; ++i) indices[static_cast<std::size_t>(i)] = i;
  return run_resilient_indices(n, indices, fn, nullptr, cfg);
}

ResilientReport run_resilient_indices(int n, const std::vector<int>& indices,
                                      const ResilientScenario& fn,
                                      SweepJournal* journal,
                                      const ResilientConfig& cfg) {
  RR_EXPECTS(n >= 0);
  RR_EXPECTS(cfg.retry.max_attempts >= 1);
  RR_EXPECTS(!journal || journal->scenarios() == n);

  ResilientReport report;
  report.entries.resize(static_cast<std::size_t>(n));
  std::vector<char> requested(static_cast<std::size_t>(n), 0);
  for (const int i : indices) {
    RR_EXPECTS(i >= 0 && i < n);
    RR_EXPECTS(!requested[static_cast<std::size_t>(i)]);
    RR_EXPECTS(!journal || !journal->completed(i));  // resume is the caller's
    requested[static_cast<std::size_t>(i)] = 1;
  }

  const auto seed_of = [&cfg](int i) {
    return cfg.seed_of ? cfg.seed_of(i)
                       : scenario_seed(cfg.base_seed,
                                       static_cast<std::uint64_t>(i));
  };

  SweepMetrics& sm = SweepMetrics::instance();
  const auto budget_tripped = [&] {
    return cfg.failure_budget >= 0 &&
           report.timed_out + report.quarantined > cfg.failure_budget;
  };

  for (const int i : indices) {
    if (budget_tripped()) break;  // the indices left count as not run
    JournalEntry entry;
    entry.index = i;
    entry.seed = seed_of(i);

    const CancelToken token(cfg.deadline);  // retries share the deadline
    int attempts = 0;
    while (true) {
      ++attempts;
      try {
        Json metrics = fn(i, token);
        entry.status = ScenarioStatus::kOk;
        entry.metrics = std::move(metrics);
        break;
      } catch (...) {
        const std::exception_ptr err = std::current_exception();
        if (token.cancelled()) {
          // The deadline passed and the scenario bailed out: record the
          // overrun as such, whatever it happened to throw on the way.
          entry.status = ScenarioStatus::kTimedOut;
          entry.error_class = fault::ErrorClass::kTransient;
          entry.error = "deadline " + std::to_string(cfg.deadline.count()) +
                        " ms exceeded";
          break;
        }
        const fault::ErrorClass cls = classify(err);
        if (cls == fault::ErrorClass::kTransient &&
            attempts < cfg.retry.max_attempts) {
          const double backoff_us = cfg.retry.backoff_after_us(attempts);
          sm.retries.inc();
          sm.backoff_us.observe(backoff_us);
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::micro>(backoff_us));
          continue;
        }
        entry.status = ScenarioStatus::kQuarantined;
        entry.error_class = cls;
        entry.error = describe(err);
        break;
      }
    }
    entry.attempts = attempts;
    switch (entry.status) {
      case ScenarioStatus::kOk:
        sm.ok.inc();
        ++report.ok;
        if (attempts > 1) ++report.retried;
        break;
      case ScenarioStatus::kTimedOut:
        sm.timeouts.inc();
        ++report.timed_out;
        break;
      case ScenarioStatus::kQuarantined:
        sm.quarantined.inc();
        ++report.quarantined;
        break;
    }

    // Journal before moving on: once append() returns the record is
    // durable, so a crash after this point costs nothing.  The process
    // crash hook (RR_CRASH_AFTER_N) fires inside append, right after the
    // fsync -- exactly the boundary a SIGKILL test wants.
    if (journal) journal->append(entry);
    report.entries[static_cast<std::size_t>(i)] = std::move(entry);
  }

  report.not_run = static_cast<int>(indices.size()) - report.ok -
                   report.timed_out - report.quarantined;
  if (budget_tripped()) {
    report.outcome = RunOutcome::kBudgetExceeded;
    sm.budget_aborts.inc();
  } else if (report.timed_out + report.quarantined > 0) {
    report.outcome = RunOutcome::kDegraded;
  } else {
    report.outcome = RunOutcome::kClean;
  }
  report.log();
  return report;
}

}  // namespace rr::engine
