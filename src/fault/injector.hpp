// Wiring failure schedules into the rest of the system: schedules onto
// the DES clock (sim/interrupt.hpp processes get interrupted), onto the
// degraded fabric (topo/degraded.hpp loses crossbars/cables/nodes), and
// into Monte-Carlo replays of checkpointed runs.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "fault/failure_model.hpp"
#include "sim/interrupt.hpp"
#include "sim/simulator.hpp"
#include "topo/degraded.hpp"

namespace rr::fault {

/// Replays a failure schedule as DES events.
class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, std::vector<FailureEvent> schedule)
      : sim_(sim), schedule_(std::move(schedule)) {}

  /// Schedule every event; `on_failure` fires at each event's time.
  void arm(std::function<void(const FailureEvent&)> on_failure);

  const std::vector<FailureEvent>& schedule() const { return schedule_; }

 private:
  sim::Simulator& sim_;
  std::vector<FailureEvent> schedule_;
};

/// Apply one failure event to the degraded-fabric overlay.  kCrossbar
/// event indices are CU-level crossbar ids (the id layout puts all
/// cu-lower/cu-upper crossbars first, so indices 0 .. 36*cu_count-1 hit
/// exactly the census'd crossbars); kIbLink indices point into `cables`.
void apply_to_fabric(topo::DegradedTopology& fabric, const FailureEvent& ev,
                     const std::vector<std::pair<int, int>>& cables);

/// One DES replay: run `plan` under system-level failure times; every
/// failure interrupts the process (losing any node aborts an MPI-style
/// job).  Failures stop arriving when the schedule drains, so the run
/// always completes.
sim::RestartStats run_interrupted(const sim::RestartPlan& plan,
                                  const std::vector<Duration>& failures);

/// Monte-Carlo estimate of the expected makespan of `plan` on a machine
/// with system MTBF `mtbf_h`: mean over `replications` independent
/// system-level schedules with seeds derived from `seed`.  Deterministic
/// for a given seed.
struct MonteCarloResult {
  double mean_makespan_s = 0.0;
  double mean_failures = 0.0;
  double completion_rate = 1.0;
  int replications = 0;
};
MonteCarloResult expected_interrupted_makespan(const sim::RestartPlan& plan,
                                               double mtbf_h,
                                               int replications,
                                               std::uint64_t seed);

}  // namespace rr::fault
