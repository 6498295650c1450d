#include "fault/injector.hpp"

#include <algorithm>
#include <memory>

#include "fault/checkpoint_policy.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace rr::fault {

void FaultInjector::arm(std::function<void(const FailureEvent&)> on_failure) {
  RR_EXPECTS(on_failure != nullptr);
  const auto shared =
      std::make_shared<std::function<void(const FailureEvent&)>>(
          std::move(on_failure));
  for (const FailureEvent& ev : schedule_) {
    sim_.schedule_at(TimePoint::origin() + ev.at,
                     [shared, ev] { (*shared)(ev); });
  }
}

void apply_to_fabric(topo::DegradedTopology& fabric, const FailureEvent& ev,
                     const std::vector<std::pair<int, int>>& cables) {
  switch (ev.component) {
    case Component::kNode:
      fabric.fail_node(topo::NodeId{ev.index});
      break;
    case Component::kIbLink: {
      RR_EXPECTS(ev.index >= 0 &&
                 ev.index < static_cast<int>(cables.size()));
      const auto [a, b] = cables[ev.index];
      fabric.fail_link(a, b);
      break;
    }
    case Component::kCrossbar:
      fabric.fail_crossbar(ev.index);
      break;
    case Component::kInterCuSwitch:
      fabric.fail_inter_cu_switch(ev.index);
      break;
  }
}

RestartStats run_interrupted(const RestartPlan& plan,
                             const std::vector<Duration>& failures) {
  RR_EXPECTS(plan.work > Duration::zero());
  RR_EXPECTS(plan.interval > Duration::zero());
  RR_EXPECTS(plan.checkpoint >= Duration::zero());
  RR_EXPECTS(plan.restart >= Duration::zero());
  RR_EXPECTS(failures.empty() || failures.front() >= Duration::zero());
  RR_EXPECTS(std::ranges::is_sorted(failures));
  RestartStats stats;
  auto next = failures.begin();  // the first failure not yet delivered
  Duration t = Duration::zero();  // start of the current segment
  Duration committed = Duration::zero();
  // As in a DES replay that queues the first segment, then every failure,
  // then the rest: only the first segment wins a tie with a failure at
  // its end.
  for (bool first = true;; first = false) {
    const Duration seg = std::min(plan.interval, plan.work - committed);
    const Duration end = t + seg + plan.checkpoint;
    if (next == failures.end() || *next > end || (*next == end && first)) {
      committed += seg;
      ++stats.checkpoints;
      stats.checkpoint_time += plan.checkpoint;
      t = end;
      if (committed >= plan.work) break;
      continue;
    }
    // The segment is lost.  The restart begins at the failure, and each
    // failure up to and including its end begins it again.
    ++stats.failures;
    stats.lost_work += *next - t;
    t = *next++;
    while (next != failures.end() && *next <= t + plan.restart) {
      ++stats.failures;
      stats.restart_time += *next - t;
      t = *next++;
    }
    stats.restart_time += plan.restart;
    t += plan.restart;
  }
  stats.makespan = t;
  return stats;
}

MonteCarloResult expected_interrupted_makespan(const RestartPlan& plan,
                                               double mtbf_h,
                                               int replications,
                                               std::uint64_t seed) {
  RR_EXPECTS(replications >= 1);
  // Failures beyond this horizon are not generated; a sufficiently
  // unlucky replication then finishes failure-free past it.  Ten times
  // the analytic expectation makes that bias negligible.
  const double expected_s = expected_makespan_s(
      plan.work.sec(), plan.interval.sec(), plan.checkpoint.sec(),
      plan.restart.sec(), mtbf_h * 3600.0);
  const Duration horizon = Duration::seconds(expected_s * 10.0 + 1.0);

  double makespan_sum = 0.0, failure_sum = 0.0;
  for (int r = 0; r < replications; ++r) {
    std::uint64_t s = seed + static_cast<std::uint64_t>(r);
    const std::uint64_t rep_seed = splitmix64(s);
    const std::vector<Duration> failures =
        generate_system_schedule(mtbf_h, horizon, rep_seed);
    const RestartStats stats = run_interrupted(plan, failures);
    makespan_sum += stats.makespan.sec();
    failure_sum += stats.failures;
  }
  MonteCarloResult mc;
  mc.mean_makespan_s = makespan_sum / replications;
  mc.mean_failures = failure_sum / replications;
  return mc;
}

}  // namespace rr::fault
