#include "model/sim_validation.hpp"

#include <cmath>

#include "arch/mapping.hpp"
#include "sweep/cml_sweep.hpp"
#include "sweep/quadrature.hpp"
#include "util/expect.hpp"

namespace rr::model {

SimulatedIteration simulate_iteration(const SweepWorkload& w, int px, int py,
                                      const SweepCompute& compute,
                                      const topo::FatTree& topo,
                                      bool best_case_pcie) {
  RR_EXPECTS(px >= 1 && py >= 1);
  RR_EXPECTS(w.angles == sweep::kAnglesPerOctant);
  const int nodes = arch::kSpeCentric.nodes_for(px * py);
  RR_EXPECTS(nodes <= topo.node_count());

  sim::Simulator simulator;
  cml::CmlConfig config;
  config.nodes = nodes;
  config.best_case_pcie = best_case_pcie;
  cml::CmlWorld world(simulator, topo, config);
  const sweep::CmlSweepResult run = sweep::sweep_once_cml_sized(
      w.it * px, w.jt * py, w.kt, sweep::KbaConfig{px, py, w.mk}, world,
      compute.per_cell_angle);
  return {run.simulated_time, run.messages, run.events, static_cast<std::size_t>(run.ranks)};
}

double model_vs_des_gap(const SweepWorkload& w, int px, int py,
                        const SweepCompute& compute, const topo::FatTree& topo) {
  const SimulatedIteration des = simulate_iteration(w, px, py, compute, topo);
  const CommMode mode = px * py <= arch::kSpeCentric.ranks_per_socket
                            ? CommMode::kIntraSocketEib
                            : CommMode::kMeasuredEarly;
  const IterationEstimate model = estimate_iteration(w, px, py, compute, mode);
  return std::abs(des.total.sec() - model.total.sec()) / des.total.sec();
}

}  // namespace rr::model
