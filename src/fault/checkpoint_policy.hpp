// Checkpoint/restart policy: Young/Daly optimal intervals and the
// expected makespan of a checkpointed run under exponential failures.
//
// All quantities are double seconds -- MTBFs at small node counts reach
// years, which overflow the picosecond Duration grid.  The checkpoint
// write cost C comes from the Panasas model (io::IoSubsystem::
// checkpoint_cost), so the policy and the I/O benches price a checkpoint
// through one code path.
#pragma once

namespace rr::fault {

/// Young's first-order optimal interval: tau = sqrt(2 C M).
double young_interval_s(double checkpoint_s, double mtbf_s);

/// Daly's higher-order optimum (valid for C < 2M; degrades to M beyond):
///   tau = sqrt(2CM) [1 + (1/3) sqrt(C/2M) + (1/9)(C/2M)] - C
double daly_interval_s(double checkpoint_s, double mtbf_s);

/// Daly's expected wall-clock for `work_s` useful seconds checkpointed
/// every `interval_s` (a checkpoint follows every segment, including the
/// last -- the job's output dump), restart cost R, exponential failures
/// with MTBF M that can strike during compute, checkpoint, and restart:
///   T = M e^{R/M} (e^{(tau+C)/M} - 1) W/tau
double expected_makespan_s(double work_s, double interval_s,
                           double checkpoint_s, double restart_s,
                           double mtbf_s);

}  // namespace rr::fault
