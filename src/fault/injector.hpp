// Wiring failure schedules into the rest of the system: schedules onto
// the DES clock, onto the degraded fabric (topo/degraded.hpp loses
// crossbars/cables/nodes), and into Monte-Carlo replays of checkpointed
// runs.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "fault/failure_model.hpp"
#include "sim/simulator.hpp"
#include "topo/degraded.hpp"
#include "util/units.hpp"

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

/// Parameters of a restartable, checkpointed run.  The segment discipline
/// is the Young/Daly one (fault/checkpoint_policy.hpp): useful work is cut
/// into `interval`-sized segments, each followed by a checkpoint write; a
/// failure anywhere inside a segment (compute or checkpoint) discards the
/// whole segment.  The final segment is checkpointed too -- the job's
/// output dump -- which is what the analytic W/tau segment count assumes.
struct RestartPlan {
  Duration work;        ///< total useful compute time
  Duration interval;    ///< useful work per checkpoint segment (tau)
  Duration checkpoint;  ///< cost of one checkpoint write (C)
  Duration restart;     ///< reboot + requeue + reload cost after a fault (R)
};

struct RestartStats {
  Duration makespan;                         ///< start to completion
  Duration lost_work = Duration::zero();     ///< discarded segment fractions
  Duration checkpoint_time = Duration::zero();
  Duration restart_time = Duration::zero();
  int failures = 0;     ///< interruptions delivered before completion
  int checkpoints = 0;  ///< committed checkpoint writes
};

/// Run `plan` from t = 0 under system-level failure times, in ascending
/// order; every failure before completion interrupts the run (losing any
/// node aborts an MPI-style job).  A failure during a restart restarts
/// the restart.  Same-time order is the DES's (time, insertion) order
/// with the failures queued after the first segment and before anything
/// else: a failure exactly at the end of the first segment lands after
/// it commits (and interrupts the next segment with nothing lost), one at
/// the end of any later segment or restart interrupts it.  Failures stop
/// arriving when the list ends, so the run always completes.
RestartStats run_interrupted(const RestartPlan& plan,
                             const std::vector<Duration>& failures);

/// Monte-Carlo estimate of the expected makespan of `plan` on a machine
/// with system MTBF `mtbf_h`: mean over `replications` independent
/// system-level schedules with seeds derived from `seed`.  Deterministic
/// for a given seed.
struct MonteCarloResult {
  double mean_makespan_s = 0.0;
  double mean_failures = 0.0;
};
MonteCarloResult expected_interrupted_makespan(const RestartPlan& plan,
                                               double mtbf_h,
                                               int replications,
                                               std::uint64_t seed);

}  // namespace rr::fault
