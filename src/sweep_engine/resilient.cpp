#include "sweep_engine/resilient.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <ostream>
#include <thread>

#include "obs/metrics.hpp"
#include "util/expect.hpp"
#include "util/log.hpp"

namespace rr::engine {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

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

ResilientReport run_resilient(SweepEngine& eng, int n,
                              const ResilientScenario& fn,
                              const ResilientConfig& cfg) {
  std::vector<int> indices(static_cast<std::size_t>(std::max(n, 0)));
  for (int i = 0; i < n; ++i) indices[static_cast<std::size_t>(i)] = i;
  return run_resilient_indices(eng, n, indices, fn, nullptr, cfg);
}

ResilientReport run_resilient_indices(SweepEngine& eng, int n,
                                      const std::vector<int>& indices,
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

  std::atomic<int> failures{0};
  std::atomic<bool> abort{false};
  SweepMetrics& sm = SweepMetrics::instance();
  const auto budget_tripped = [&] {
    return cfg.failure_budget >= 0 &&
           failures.load(std::memory_order_relaxed) > cfg.failure_budget;
  };

  // Watchdog state: per-index cancel tokens plus start/finish stamps the
  // watchdog thread scans.  deque: CancelToken is not movable.
  std::deque<CancelToken> tokens(static_cast<std::size_t>(n));
  std::vector<std::atomic<std::int64_t>> started_ns(
      static_cast<std::size_t>(n));
  std::vector<std::atomic<bool>> finished(static_cast<std::size_t>(n));
  std::atomic<bool> batch_done{false};

  std::thread watchdog;
  if (cfg.deadline.count() > 0 && n > 0) {
    const std::int64_t deadline_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(cfg.deadline)
            .count();
    const auto poll = std::max<std::chrono::milliseconds>(
        std::chrono::milliseconds(1), cfg.deadline / 8);
    watchdog = std::thread([&, deadline_ns, poll] {
      while (!batch_done.load(std::memory_order_acquire)) {
        const std::int64_t now = now_ns();
        for (int i = 0; i < n; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          const std::int64_t t0 =
              started_ns[idx].load(std::memory_order_acquire);
          if (t0 != 0 && !finished[idx].load(std::memory_order_acquire) &&
              now - t0 > deadline_ns)
            tokens[idx].cancel();
        }
        std::this_thread::sleep_for(poll);
      }
    });
  }

  std::mutex entries_mu;  // report.entries slots are per-index, but the
                          // counters below are shared
  const auto worker = [&](int i) {
    const auto idx = static_cast<std::size_t>(i);
    JournalEntry entry;
    entry.index = i;
    entry.seed = seed_of(i);

    started_ns[idx].store(now_ns(), std::memory_order_release);
    int attempts = 0;
    while (true) {
      ++attempts;
      try {
        Json metrics = fn(i, tokens[idx]);
        entry.status = ScenarioStatus::kOk;
        entry.metrics = std::move(metrics);
        break;
      } catch (...) {
        const std::exception_ptr err = std::current_exception();
        if (tokens[idx].cancelled()) {
          // The watchdog fired and the scenario bailed out: record the
          // overrun as such, whatever it happened to throw on the way.
          entry.status = ScenarioStatus::kTimedOut;
          entry.error_class = fault::ErrorClass::kTransient;
          entry.error = "deadline " + std::to_string(cfg.deadline.count()) +
                        " ms exceeded";
          break;
        }
        const fault::ErrorClass cls = classify(err);
        if (cls == fault::ErrorClass::kTransient &&
            attempts < cfg.retry.max_attempts &&
            !abort.load(std::memory_order_acquire)) {
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
      case ScenarioStatus::kOk: sm.ok.inc(); break;
      case ScenarioStatus::kTimedOut: sm.timeouts.inc(); break;
      case ScenarioStatus::kQuarantined: sm.quarantined.inc(); break;
    }
    finished[idx].store(true, std::memory_order_release);

    // Journal before publishing: once append() returns the record is
    // durable, so a crash after this point costs nothing.  The process
    // crash hook (RR_CRASH_AFTER_N) fires inside append, right after the
    // fsync -- exactly the boundary a SIGKILL test wants.
    if (journal) journal->append(entry);
    {
      std::lock_guard lock(entries_mu);
      report.entries[idx] = std::move(entry);
    }
    if (!report.entries[idx]->ok()) {
      failures.fetch_add(1, std::memory_order_relaxed);
      if (budget_tripped()) abort.store(true, std::memory_order_release);
    }
  };

  // The pool fans out over the requested indices; slots are keyed by
  // global index, so the determinism contract (results keyed by index,
  // seeds derived from index) holds for any subset.
  if (!indices.empty())
    eng.pool().for_each_index(
        static_cast<int>(indices.size()),
        [&](int j) { worker(indices[static_cast<std::size_t>(j)]); }, &abort);

  batch_done.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();

  for (int i = 0; i < n; ++i) {
    const auto& e = report.entries[static_cast<std::size_t>(i)];
    if (!e) {
      if (requested[static_cast<std::size_t>(i)]) ++report.not_run;
      continue;
    }
    switch (e->status) {
      case ScenarioStatus::kOk:
        ++report.ok;
        if (e->attempts > 1) ++report.retried;
        break;
      case ScenarioStatus::kTimedOut: ++report.timed_out; break;
      case ScenarioStatus::kQuarantined: ++report.quarantined; break;
    }
  }
  if (abort.load(std::memory_order_acquire) && budget_tripped()) {
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

void write_entries_jsonl(
    const std::vector<std::optional<JournalEntry>>& entries, std::ostream& os) {
  for (const auto& e : entries) {
    if (!e) continue;
    to_json(*e).dump_to(os);
    os << '\n';
  }
}

}  // namespace rr::engine
