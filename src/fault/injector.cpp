#include "fault/injector.hpp"

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

sim::RestartStats run_interrupted(const sim::RestartPlan& plan,
                                  const std::vector<Duration>& failures) {
  sim::Simulator sim;
  sim::InterruptibleProcess proc(sim, plan);
  proc.start();
  for (const Duration& at : failures)
    sim.schedule_at(TimePoint::origin() + at, [&proc] { proc.interrupt(); });
  sim.run();
  RR_ENSURES(proc.done());
  return proc.stats();
}

MonteCarloResult expected_interrupted_makespan(const sim::RestartPlan& plan,
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

  MonteCarloResult mc;
  mc.replications = replications;
  double makespan_sum = 0.0, failure_sum = 0.0;
  int completed = 0;
  for (int r = 0; r < replications; ++r) {
    std::uint64_t s = seed + static_cast<std::uint64_t>(r);
    const std::uint64_t rep_seed = splitmix64(s);
    const std::vector<Duration> failures =
        generate_system_schedule(mtbf_h, horizon, rep_seed);
    const sim::RestartStats stats = run_interrupted(plan, failures);
    makespan_sum += stats.makespan.sec();
    failure_sum += stats.failures;
    if (stats.completed) ++completed;
  }
  mc.mean_makespan_s = makespan_sum / replications;
  mc.mean_failures = failure_sum / replications;
  mc.completion_rate = static_cast<double>(completed) / replications;
  return mc;
}

}  // namespace rr::fault
