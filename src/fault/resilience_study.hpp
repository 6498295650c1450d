// Application impact studies: what MTBF-driven failures cost an
// interrupted HPL walk and a timed Sweep3D scale run, as a function of
// node count (1 -> 3,060) and checkpoint interval.
//
// For each node count the study (1) prices a defensive checkpoint with
// the Panasas model, (2) derives the system MTBF from the component
// census, (3) picks the Daly-optimal interval, (4) evaluates the
// analytic expected makespan, and (5) replays the run on the DES under
// Monte-Carlo failure schedules.  The DES mean and the Young/Daly closed
// form agree within a few percent -- the bench asserts 10%.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "arch/spec.hpp"
#include "fault/failure_model.hpp"
#include "util/units.hpp"

namespace rr::fault {

struct StudyConfig {
  ReliabilityParams reliability{};
  /// Application state written per node per checkpoint (not full memory).
  DataSize state_per_node = DataSize::gib(4);
  /// Reboot + requeue + reload after an interruption.
  double restart_s = 420.0;
  int replications = 3000;
  std::uint64_t seed = 0x0a0dbeefULL;
};

struct ResiliencePoint {
  int nodes = 0;
  double fault_free_s = 0.0;
  double system_mtbf_h = 0.0;
  double checkpoint_s = 0.0;  ///< C from io::IoSubsystem::checkpoint_cost
  double interval_s = 0.0;    ///< Daly-optimal tau (clamped to the run)
  double analytic_s = 0.0;    ///< Young/Daly expected makespan
  double simulated_s = 0.0;   ///< DES Monte-Carlo mean makespan
  double mean_failures = 0.0;
  double overhead_analytic = 0.0;  ///< analytic_s / fault_free_s - 1
  double overhead_simulated = 0.0;
  double efficiency = 0.0;         ///< fault_free_s / simulated_s

  /// |simulated - analytic| / analytic.
  double model_error() const {
    return analytic_s > 0.0 ? std::abs(simulated_s - analytic_s) / analytic_s
                            : 0.0;
  }
};

/// Monte-Carlo seed for the study point at `nodes` (salt 0 = node-count
/// studies; the interval sweep salts by point index).  Exposed so the
/// parallel sweep engine replays the exact serial streams: child seeds
/// are split from `base` per scenario, never shared.
std::uint64_t study_point_seed(std::uint64_t base, int nodes, int salt);

/// Fault-free HPL walk time at `nodes`, memory-proportional problem size
/// (N scales with sqrt(nodes) off the full machine's N = 2.3M).  Each
/// thread keeps the last 16 times it walked against the last spec it was
/// given, so a repeated (spec, nodes) returns the same bits without
/// walking again; a spec that differs in any field is walked afresh.
double hpl_fault_free_s(const arch::SystemSpec& system, int nodes);

/// Fault-free timed Sweep3D run: `iterations` of the Fig. 13 weak-scaled
/// Cell (measured) configuration at `nodes`.
double sweep_fault_free_s(int nodes, int iterations);

/// Evaluate one (node count, fault-free time) point end to end.
ResiliencePoint study_point(const arch::SystemSpec& system,
                            const topo::Topology& full_topo, int nodes,
                            double fault_free_s, const StudyConfig& cfg);

/// Interrupted-HPL study over `node_counts`.
std::vector<ResiliencePoint> hpl_study(const arch::SystemSpec& system,
                                       const topo::Topology& full_topo,
                                       const std::vector<int>& node_counts,
                                       const StudyConfig& cfg = {});

/// Interrupted timed Sweep3D study over `node_counts`.
std::vector<ResiliencePoint> sweep_study(const arch::SystemSpec& system,
                                         const topo::Topology& full_topo,
                                         const std::vector<int>& node_counts,
                                         int iterations,
                                         const StudyConfig& cfg = {});

/// Checkpoint-interval sweep at a fixed node count: multiples of the
/// Daly optimum showing the overhead bathtub around tau*.
struct IntervalPoint {
  double interval_s = 0.0;
  double relative_to_optimal = 0.0;
  double analytic_s = 0.0;
  double simulated_s = 0.0;
};
std::vector<IntervalPoint> interval_sweep(const arch::SystemSpec& system,
                                          const topo::Topology& full_topo,
                                          int nodes, double fault_free_s,
                                          const std::vector<double>& multiples,
                                          const StudyConfig& cfg = {});

/// One point of the interval sweep: interval = min(optimal * multiple,
/// fault_free).  `salt` feeds the Monte-Carlo seed; the serial sweep uses
/// salt = point index + 1, and the parallel engine must match it.
IntervalPoint interval_point(const arch::SystemSpec& system,
                             const topo::Topology& full_topo, int nodes,
                             double fault_free_s, double multiple, int salt,
                             const StudyConfig& cfg = {});

}  // namespace rr::fault
