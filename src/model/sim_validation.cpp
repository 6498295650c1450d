#include "model/sim_validation.hpp"

#include <cmath>

#include "sweep/quadrature.hpp"
#include "util/expect.hpp"

namespace rr::model {

namespace {

int message_tag(int octant, int block, int axis) {
  return (octant * 4096 + block) * 2 + axis;
}

}  // namespace

SimulatedIteration simulate_iteration(const SweepWorkload& w, int px, int py,
                                      const SweepCompute& compute,
                                      const topo::Topology& topo,
                                      bool best_case_pcie) {
  RR_EXPECTS(px >= 1 && py >= 1);
  RR_EXPECTS(w.kt % w.mk == 0);
  const int ranks = px * py;
  const int nodes = (ranks + 31) / 32;
  RR_EXPECTS(nodes <= topo.node_count());

  sim::Simulator simulator;
  cml::CmlConfig config;
  config.nodes = nodes;
  config.best_case_pcie = best_case_pcie;
  cml::CmlWorld world(simulator, topo, config);
  RR_EXPECTS(world.size() >= ranks);

  const int k_blocks = w.kt / w.mk;
  const Duration block_compute =
      compute.per_cell_angle * (static_cast<std::int64_t>(w.it) * w.jt * w.mk *
                                w.angles);
  const std::size_t x_doubles = static_cast<std::size_t>(w.jt) * w.mk * w.angles;
  const std::size_t y_doubles = static_cast<std::size_t>(w.it) * w.mk * w.angles;

  auto program = [&](cml::CmlContext ctx) -> sim::Task<void> {
    const int r = ctx.rank();
    if (r >= ranks) co_return;
    const int pi = r % px;
    const int pj = r / px;

    for (int oc = 0; oc < sweep::kOctants; ++oc) {
      const sweep::Octant o = sweep::octant(oc);
      const int up_x = pi - o.sx;
      const int up_y = pj - o.sy;
      const int dn_x = pi + o.sx;
      const int dn_y = pj + o.sy;
      for (int b = 0; b < k_blocks; ++b) {
        if (up_x >= 0 && up_x < px)
          co_await ctx.recv(pj * px + up_x, message_tag(oc, b, 0));
        if (up_y >= 0 && up_y < py)
          co_await ctx.recv(up_y * px + pi, message_tag(oc, b, 1));

        co_await sim::Delay{world.simulator(), block_compute};

        if (dn_x >= 0 && dn_x < px)
          co_await ctx.send_sized(pj * px + dn_x, message_tag(oc, b, 0), x_doubles);
        if (dn_y >= 0 && dn_y < py)
          co_await ctx.send_sized(dn_y * px + pi, message_tag(oc, b, 1), y_doubles);
      }
    }
  };

  SimulatedIteration out;
  const std::size_t done = world.run(program);
  RR_ENSURES(done == static_cast<std::size_t>(world.size()));  // no deadlock
  out.total = simulator.now() - TimePoint::origin();
  out.messages = world.network().messages_sent();
  out.ranks = static_cast<std::size_t>(ranks);
  return out;
}

double model_vs_des_gap(const SweepWorkload& w, int px, int py,
                        const SweepCompute& compute, const topo::Topology& topo) {
  const SimulatedIteration des = simulate_iteration(w, px, py, compute, topo);
  const CommMode mode = px * py <= 8 ? CommMode::kIntraSocketEib
                                     : CommMode::kMeasuredEarly;
  const IterationEstimate model = estimate_iteration(w, px, py, compute, mode);
  return std::abs(des.total.sec() - model.total.sec()) / des.total.sec();
}

}  // namespace rr::model
