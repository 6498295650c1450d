#include <gtest/gtest.h>

#include "topo/fat_tree.hpp"
#include "model/sweep_model.hpp"
#include "sweep/cml_sweep.hpp"

namespace rr::sweep {
namespace {

const topo::Topology& one_cu_topo() {
  static const topo::FatTree t = [] {
    topo::TopologyParams p;
    p.cu_count = 1;
    return topo::FatTree::build(p);
  }();
  return t;
}

struct CmlSweepFixture {
  sim::Simulator simulator;
  cml::CmlWorld world;
  explicit CmlSweepFixture(int nodes = 1)
      : world(simulator, one_cu_topo(), cml::CmlConfig{nodes, 4, 8}) {}
};

Problem tiny_problem() {
  Problem p;
  p.nx = p.ny = p.nz = 8;
  p.dx = p.dy = p.dz = 0.5;
  p.sigma_t = 1.0;
  p.sigma_s = 0.5;
  return p;
}

Duration spe_rate() {
  return model::spe_compute(arch::CellVariant::kPowerXCell8i).per_cell_angle;
}

TEST(CmlSweep, FluxesBitwiseIdenticalToSerial) {
  const Problem p = tiny_problem();
  const std::vector<double> emission(p.cells(), 1.0);
  const SweepResult serial = sweep_once(p, emission);

  CmlSweepFixture f;
  const CmlSweepResult over_cml =
      sweep_once_cml(p, emission, KbaConfig{2, 2, 2}, f.world, spe_rate());
  ASSERT_EQ(over_cml.sweep.scalar_flux.size(), serial.scalar_flux.size());
  for (std::size_t c = 0; c < serial.scalar_flux.size(); ++c)
    ASSERT_EQ(over_cml.sweep.scalar_flux[c], serial.scalar_flux[c]) << c;
  EXPECT_EQ(over_cml.sweep.fixups, serial.fixups);
  EXPECT_NEAR(over_cml.sweep.leakage, serial.leakage, 1e-12 * serial.leakage);
}

TEST(CmlSweep, SimulatedTimeIsPositiveAndDeterministic) {
  const Problem p = tiny_problem();
  const std::vector<double> emission(p.cells(), 1.0);
  CmlSweepFixture f1, f2;
  const auto a = sweep_once_cml(p, emission, KbaConfig{2, 2, 2}, f1.world, spe_rate());
  const auto b = sweep_once_cml(p, emission, KbaConfig{2, 2, 2}, f2.world, spe_rate());
  EXPECT_GT(a.simulated_time.ps(), 0);
  EXPECT_EQ(a.simulated_time.ps(), b.simulated_time.ps());
  EXPECT_EQ(a.messages, b.messages);
}

TEST(CmlSweep, MessageCountMatchesTheExchangePattern) {
  const Problem p = tiny_problem();
  const std::vector<double> emission(p.cells(), 1.0);
  CmlSweepFixture f;
  const KbaConfig cfg{2, 2, 4};
  const auto r = sweep_once_cml(p, emission, cfg, f.world, spe_rate());
  // Sends: 8 octants x (nz/mk) blocks x [(px-1)py + px(py-1)] faces; each
  // carries all six angles of its block.
  const std::uint64_t sends = 8ull * (p.nz / cfg.mk) *
                              ((cfg.px - 1) * cfg.py + cfg.px * (cfg.py - 1));
  // All four ranks share one Cell, so every send is exactly one EIB leg.
  EXPECT_EQ(r.messages, sends);
}

TEST(CmlSweep, MoreRanksCostMoreSimulatedTimeForFixedProblem) {
  // Strong scaling of a fixed small problem: the per-rank compute shrinks
  // but pipeline fill and per-message latency grow -- at this size the
  // communication dominates, so more ranks are slower on the simulated
  // machine (the granularity effect the paper's MK discussion is about).
  // At MK = 2 (four blocks) 4x4 takes 580.4 us and 2x1 357.1 us; at
  // MK = 4 the six-angle messages amortise their latency and 4x4 wins.
  const Problem p = tiny_problem();
  const std::vector<double> emission(p.cells(), 1.0);
  CmlSweepFixture f1, f2;
  const auto small = sweep_once_cml(p, emission, KbaConfig{2, 1, 2}, f1.world, spe_rate());
  const auto big = sweep_once_cml(p, emission, KbaConfig{4, 4, 2}, f2.world, spe_rate());
  EXPECT_GT(big.simulated_time.ps(), small.simulated_time.ps());
}

TEST(CmlSweep, SizedRunTimesLikeTheFluxRun) {
  // The size-only run is the flux program without fluxes: on one Cell
  // (EIB legs), four Cells (DaCS legs) and two nodes (IB legs) it takes
  // the same simulated time over the same legs.
  Problem p = tiny_problem();
  p.nx = 16;
  const std::vector<double> emission(p.cells(), 1.0);
  struct Case {
    KbaConfig cfg;
    int nodes;
  };
  for (const Case c : {Case{{2, 2, 4}, 1}, Case{{8, 4, 4}, 1}, Case{{8, 8, 4}, 2}}) {
    CmlSweepFixture f1(c.nodes), f2(c.nodes);
    const auto flux = sweep_once_cml(p, emission, c.cfg, f1.world, spe_rate());
    const auto sized =
        sweep_once_cml_sized(p.nx, p.ny, p.nz, c.cfg, f2.world, spe_rate());
    EXPECT_EQ(sized.simulated_time.ps(), flux.simulated_time.ps()) << c.cfg.ranks();
    EXPECT_EQ(sized.messages, flux.messages) << c.cfg.ranks();
    EXPECT_EQ(sized.ranks, flux.ranks);
    EXPECT_TRUE(sized.sweep.scalar_flux.empty());
  }
}

TEST(CmlSweep, SingleRankNeedsNoMessages) {
  const Problem p = tiny_problem();
  const std::vector<double> emission(p.cells(), 1.0);
  CmlSweepFixture f;
  const auto r = sweep_once_cml(p, emission, KbaConfig{1, 1, 2}, f.world, spe_rate());
  EXPECT_EQ(r.messages, 0u);
  const SweepResult serial = sweep_once(p, emission);
  for (std::size_t c = 0; c < serial.scalar_flux.size(); ++c)
    ASSERT_EQ(r.sweep.scalar_flux[c], serial.scalar_flux[c]);
}

TEST(CmlSweep, CrossNodeRanksStillBitwiseCorrect) {
  // 64 ranks over 2 nodes: boundary planes cross DaCS + InfiniBand and
  // the physics must not care.
  Problem p = tiny_problem();
  p.nx = 16;
  p.ny = 8;
  const std::vector<double> emission(p.cells(), 1.0);
  CmlSweepFixture f(2);
  const KbaConfig cfg{8, 8, 2};
  const auto r = sweep_once_cml(p, emission, cfg, f.world, spe_rate());
  const SweepResult serial = sweep_once(p, emission);
  for (std::size_t c = 0; c < serial.scalar_flux.size(); ++c)
    ASSERT_EQ(r.sweep.scalar_flux[c], serial.scalar_flux[c]);
}

// The KBA decomposition is exact: every rank grid and block size that
// divides the problem sweeps bitwise-identically to the serial solver.
// (mk is planes per block: on nz = 8, mk = 1 is eight blocks.)
class KbaDecompositions : public ::testing::TestWithParam<KbaConfig> {};

TEST_P(KbaDecompositions, BitwiseIdenticalToSerial) {
  const Problem p = tiny_problem();
  const std::vector<double> emission(p.cells(), 1.0);
  const SweepResult serial = sweep_once(p, emission);
  CmlSweepFixture f;
  const SweepResult par =
      sweep_once_cml(p, emission, GetParam(), f.world, spe_rate()).sweep;
  ASSERT_EQ(par.scalar_flux.size(), serial.scalar_flux.size());
  for (std::size_t c = 0; c < serial.scalar_flux.size(); ++c)
    ASSERT_EQ(par.scalar_flux[c], serial.scalar_flux[c]) << "cell " << c;
  EXPECT_EQ(par.fixups, serial.fixups);
  EXPECT_NEAR(par.leakage, serial.leakage, 1e-12 * serial.leakage);
}

INSTANTIATE_TEST_SUITE_P(Decompositions, KbaDecompositions,
                         ::testing::Values(KbaConfig{1, 1, 1},
                                           KbaConfig{2, 1, 2},
                                           KbaConfig{1, 2, 4},
                                           KbaConfig{2, 2, 2},
                                           KbaConfig{4, 2, 8},
                                           KbaConfig{2, 4, 1},
                                           KbaConfig{4, 4, 4}),
                         [](const auto& inf) {
                           return "px" + std::to_string(inf.param.px) + "py" +
                                  std::to_string(inf.param.py) + "mk" +
                                  std::to_string(inf.param.mk);
                         });

TEST(KbaSolve, RejectsNonDividingDecomposition) {
  Problem p = tiny_problem();
  p.nx = p.ny = p.nz = 7;
  const std::vector<double> emission(p.cells(), 1.0);
  EXPECT_DEATH(
      {
        CmlSweepFixture f;
        sweep_once_cml(p, emission, KbaConfig{2, 1, 1}, f.world, spe_rate());
      },
      "Precondition");
}

}  // namespace
}  // namespace rr::sweep
