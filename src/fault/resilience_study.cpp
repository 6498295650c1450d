#include "fault/resilience_study.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "fault/checkpoint_policy.hpp"
#include "fault/injector.hpp"
#include "io/io_model.hpp"
#include "model/hpl_sim.hpp"
#include "model/sweep_model.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace rr::fault {

namespace {

/// A partial machine of `nodes` triblades with pro-rated Panasas I/O
/// (12 I/O nodes per started CU-equivalent of 180 nodes).
arch::SystemSpec scaled_system(const arch::SystemSpec& full, int nodes) {
  RR_EXPECTS(nodes >= 1);
  arch::SystemSpec s = full;
  const int cu_equivalents = (nodes + full.nodes_per_cu - 1) / full.nodes_per_cu;
  s.io_nodes_per_cu = full.io_nodes_per_cu * cu_equivalents;
  s.cu_count = 1;
  s.nodes_per_cu = nodes;
  return s;
}

/// The HPL walk itself: memory-proportional problem at `nodes`.
double walk_hpl_s(const arch::SystemSpec& system, int nodes) {
  model::HplSimParams p;
  const auto [px, py] = model::choose_grid(nodes);
  p.grid_p = py;
  p.grid_q = px;
  // Memory-proportional problem: N scales with sqrt(nodes) off the full
  // machine's 2.3M, rounded to the block size.
  const double scale = std::sqrt(static_cast<double>(nodes) /
                                 static_cast<double>(system.node_count()));
  const std::int64_t blocks = std::max<std::int64_t>(
      16, static_cast<std::int64_t>(2'300'000.0 * scale) / p.nb);
  p.n = blocks * p.nb;
  const arch::SystemSpec machine = scaled_system(system, nodes);
  return model::simulate_hpl(machine, p).total.sec();
}

/// Fault-free times this thread has priced, all against one machine:
/// the walk is a pure function of (spec, nodes), and a campaign cycles
/// a handful of partition sizes over thousands of scenarios.  Bounded:
/// past kCapacity sizes the oldest entry is overwritten.
struct FaultFreeTable {
  static constexpr std::size_t kCapacity = 16;
  arch::SystemSpec system;  ///< the spec every entry was priced against
  std::size_t filled = 0;   ///< misses since `system` was set
  std::array<std::pair<int, double>, kCapacity> entries{};  ///< nodes, s
};

}  // namespace

std::uint64_t study_point_seed(std::uint64_t base, int nodes, int salt) {
  std::uint64_t s = base;
  std::uint64_t h = splitmix64(s);
  s = h ^ (static_cast<std::uint64_t>(nodes) << 20) ^
      static_cast<std::uint64_t>(salt);
  return splitmix64(s);
}

double hpl_fault_free_s(const arch::SystemSpec& system, int nodes) {
  RR_EXPECTS(nodes >= 1 && nodes <= system.node_count());
  thread_local FaultFreeTable table;
  // Any difference in any field of the machine is a miss: a stale time
  // is never served for another spec.
  if (!(table.system == system)) {
    table.system = system;
    table.filled = 0;
  }
  const std::size_t live = std::min(table.filled, FaultFreeTable::kCapacity);
  for (std::size_t k = 0; k < live; ++k)
    if (table.entries[k].first == nodes) return table.entries[k].second;
  const double s = walk_hpl_s(system, nodes);
  table.entries[table.filled++ % FaultFreeTable::kCapacity] = {nodes, s};
  return s;
}

double sweep_fault_free_s(int nodes, int iterations) {
  RR_EXPECTS(iterations >= 1);
  return model::scale_point(nodes).cell_measured_s * iterations;
}

ResiliencePoint study_point(const arch::SystemSpec& system,
                            const topo::FatTree& full_topo, int nodes,
                            double fault_free_s, const StudyConfig& cfg) {
  RR_EXPECTS(fault_free_s > 0.0);
  ResiliencePoint pt;
  pt.nodes = nodes;
  pt.fault_free_s = fault_free_s;

  const ComponentCounts counts = census_for_nodes(full_topo, nodes);
  pt.system_mtbf_h = system_mtbf_h(counts, cfg.reliability);
  const double mtbf_s = pt.system_mtbf_h * 3600.0;

  const io::IoSubsystem io(scaled_system(system, nodes));
  pt.checkpoint_s = io.checkpoint_cost(cfg.state_per_node).sec();

  // Daly's optimum, clamped so a short run is still one full segment (the
  // analytic form and the DES then describe the same schedule).
  pt.interval_s =
      std::min(daly_interval_s(pt.checkpoint_s, mtbf_s), fault_free_s);

  pt.analytic_s = expected_makespan_s(fault_free_s, pt.interval_s,
                                      pt.checkpoint_s, cfg.restart_s, mtbf_s);

  const sim::RestartPlan plan{
      Duration::seconds(fault_free_s), Duration::seconds(pt.interval_s),
      Duration::seconds(pt.checkpoint_s), Duration::seconds(cfg.restart_s)};
  const MonteCarloResult mc = expected_interrupted_makespan(
      plan, pt.system_mtbf_h, cfg.replications,
      study_point_seed(cfg.seed, nodes, 0));

  pt.simulated_s = mc.mean_makespan_s;
  pt.mean_failures = mc.mean_failures;
  pt.overhead_analytic = pt.analytic_s / fault_free_s - 1.0;
  pt.overhead_simulated = pt.simulated_s / fault_free_s - 1.0;
  pt.efficiency = fault_free_s / pt.simulated_s;
  return pt;
}

std::vector<ResiliencePoint> hpl_study(const arch::SystemSpec& system,
                                       const topo::FatTree& full_topo,
                                       const std::vector<int>& node_counts,
                                       const StudyConfig& cfg) {
  std::vector<ResiliencePoint> out;
  out.reserve(node_counts.size());
  for (const int nodes : node_counts)
    out.push_back(study_point(system, full_topo, nodes,
                              hpl_fault_free_s(system, nodes), cfg));
  return out;
}

std::vector<ResiliencePoint> sweep_study(const arch::SystemSpec& system,
                                         const topo::FatTree& full_topo,
                                         const std::vector<int>& node_counts,
                                         int iterations,
                                         const StudyConfig& cfg) {
  std::vector<ResiliencePoint> out;
  out.reserve(node_counts.size());
  for (const int nodes : node_counts)
    out.push_back(study_point(system, full_topo, nodes,
                              sweep_fault_free_s(nodes, iterations), cfg));
  return out;
}

IntervalPoint interval_point(const arch::SystemSpec& system,
                             const topo::FatTree& full_topo, int nodes,
                             double fault_free_s, double multiple, int salt,
                             const StudyConfig& cfg) {
  RR_EXPECTS(fault_free_s > 0.0);
  RR_EXPECTS(multiple > 0.0);
  const ComponentCounts counts = census_for_nodes(full_topo, nodes);
  const double mtbf_h = system_mtbf_h(counts, cfg.reliability);
  const double mtbf_s = mtbf_h * 3600.0;
  const io::IoSubsystem io(scaled_system(system, nodes));
  const double checkpoint_s = io.checkpoint_cost(cfg.state_per_node).sec();
  const double optimal_s =
      std::min(daly_interval_s(checkpoint_s, mtbf_s), fault_free_s);

  IntervalPoint p;
  p.relative_to_optimal = multiple;
  p.interval_s = std::min(optimal_s * multiple, fault_free_s);
  p.analytic_s = expected_makespan_s(fault_free_s, p.interval_s, checkpoint_s,
                                     cfg.restart_s, mtbf_s);
  const sim::RestartPlan plan{
      Duration::seconds(fault_free_s), Duration::seconds(p.interval_s),
      Duration::seconds(checkpoint_s), Duration::seconds(cfg.restart_s)};
  const MonteCarloResult mc = expected_interrupted_makespan(
      plan, mtbf_h, cfg.replications, study_point_seed(cfg.seed, nodes, salt));
  p.simulated_s = mc.mean_makespan_s;
  return p;
}

std::vector<IntervalPoint> interval_sweep(const arch::SystemSpec& system,
                                          const topo::FatTree& full_topo,
                                          int nodes, double fault_free_s,
                                          const std::vector<double>& multiples,
                                          const StudyConfig& cfg) {
  std::vector<IntervalPoint> out;
  out.reserve(multiples.size());
  for (std::size_t i = 0; i < multiples.size(); ++i)
    out.push_back(interval_point(system, full_topo, nodes, fault_free_s,
                                 multiples[i], static_cast<int>(i) + 1, cfg));
  return out;
}

}  // namespace rr::fault
