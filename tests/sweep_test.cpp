#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "sweep/quadrature.hpp"
#include "sweep/schedule.hpp"
#include "sweep/solver.hpp"

namespace rr::sweep {
namespace {

Problem small_problem(int n = 8) {
  Problem p;
  p.nx = p.ny = p.nz = n;
  p.dx = p.dy = p.dz = 0.5;
  p.sigma_t = 1.0;
  p.sigma_s = 0.5;
  return p;
}

// ---------------------------------------------------------------------------
// Quadrature
// ---------------------------------------------------------------------------

TEST(Quadrature, DirectionsAreUnitVectors) {
  for (const Direction& d : s6_all_angles()) {
    const double norm = d.mu * d.mu + d.eta * d.eta + d.xi * d.xi;
    EXPECT_NEAR(norm, 1.0, 1e-6);
  }
}

TEST(Quadrature, WeightsSumToOne) {
  EXPECT_NEAR(total_weight(), 1.0, 1e-12);
}

TEST(Quadrature, SixAnglesPerOctantFortyEightTotal) {
  EXPECT_EQ(s6_octant_angles().size(), 6u);
  EXPECT_EQ(s6_all_angles().size(), 48u);
}

TEST(Quadrature, OctantSignsCoverAllCombinations) {
  int seen = 0;
  for (int oc = 0; oc < kOctants; ++oc) {
    const Octant o = octant(oc);
    seen |= 1 << ((o.sx > 0 ? 0 : 1) + 2 * (o.sy > 0 ? 0 : 1) + 4 * (o.sz > 0 ? 0 : 1));
  }
  EXPECT_EQ(seen, 0xFF);
}

TEST(Quadrature, FirstMomentVanishesBySymmetry) {
  double mx = 0.0, my = 0.0, mz = 0.0;
  for (const Direction& d : s6_all_angles()) {
    mx += d.weight * d.mu;
    my += d.weight * d.eta;
    mz += d.weight * d.xi;
  }
  EXPECT_NEAR(mx, 0.0, 1e-14);
  EXPECT_NEAR(my, 0.0, 1e-14);
  EXPECT_NEAR(mz, 0.0, 1e-14);
}

// ---------------------------------------------------------------------------
// Serial solver physics
// ---------------------------------------------------------------------------

TEST(SerialSweep, FluxIsPositiveForPositiveSource) {
  const Problem p = small_problem();
  const SolveResult r = solve(p, 1e-8);
  ASSERT_TRUE(r.converged);
  for (const double phi : r.scalar_flux) EXPECT_GT(phi, 0.0);
}

TEST(SerialSweep, ConvergesForScatteringRatioBelowOne) {
  Problem p = small_problem();
  p.sigma_s = 0.9;
  const SolveResult r = solve(p, 1e-8, 500);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.residual, 1e-8);
}

TEST(SerialSweep, ParticleBalanceHolds) {
  const Problem p = small_problem();
  const SolveResult r = solve(p, 1e-10, 500);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(balance_residual(p, r), 1e-7);
}

TEST(SerialSweep, ParticleBalanceHoldsWithFixupsActive) {
  // A point source in optically thick cells produces steep gradients,
  // which drive diamond-difference face fluxes negative.
  Problem p = small_problem();
  p.dx = p.dy = p.dz = 6.0;
  p.q.assign(p.cells(), 0.0);
  p.q[p.idx(4, 4, 4)] = 100.0;
  std::vector<double> emission(p.q);
  const SweepResult one = sweep_once(p, emission);
  EXPECT_GT(one.fixups, 0u);  // fixup path genuinely exercised
  const SolveResult r = solve(p, 1e-10, 500);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(balance_residual(p, r), 1e-7);
}

TEST(SerialSweep, InfiniteMediumLimit) {
  // With a huge domain and pure absorption, the center flux approaches the
  // infinite-medium solution phi = q / sigma_a.
  Problem p;
  p.nx = p.ny = p.nz = 20;
  p.dx = p.dy = p.dz = 4.0;  // many mean free paths across
  p.sigma_t = 2.0;
  p.sigma_s = 0.0;
  const SolveResult r = solve(p, 1e-10);
  ASSERT_TRUE(r.converged);
  const double center = r.scalar_flux[p.idx(10, 10, 10)];
  EXPECT_NEAR(center, 1.0 / 2.0, 0.01);
}

TEST(SerialSweep, ScatteringRaisesFlux) {
  Problem pure = small_problem();
  pure.sigma_s = 0.0;
  Problem scat = small_problem();
  scat.sigma_s = 0.8;
  const double f0 = solve(pure, 1e-9).scalar_flux[pure.idx(4, 4, 4)];
  const double f1 = solve(scat, 1e-9, 500).scalar_flux[scat.idx(4, 4, 4)];
  EXPECT_GT(f1, f0);
}

TEST(SerialSweep, SolutionIsSymmetricForSymmetricProblem) {
  const Problem p = small_problem();
  const SolveResult r = solve(p, 1e-9);
  const auto& phi = r.scalar_flux;
  // Mirror symmetry in all three axes.
  for (int k = 0; k < p.nz; ++k)
    for (int j = 0; j < p.ny; ++j)
      for (int i = 0; i < p.nx; ++i) {
        const double a = phi[p.idx(i, j, k)];
        EXPECT_NEAR(a, phi[p.idx(p.nx - 1 - i, j, k)], 1e-9);
        EXPECT_NEAR(a, phi[p.idx(i, p.ny - 1 - j, k)], 1e-9);
        EXPECT_NEAR(a, phi[p.idx(i, j, p.nz - 1 - k)], 1e-9);
      }
}

TEST(SerialSweep, CenterFluxExceedsCornerFlux) {
  const Problem p = small_problem();
  const SolveResult r = solve(p, 1e-9);
  EXPECT_GT(r.scalar_flux[p.idx(4, 4, 4)], r.scalar_flux[p.idx(0, 0, 0)]);
}

TEST(SerialSweep, SourceLinearity) {
  // Transport is linear: doubling q doubles phi (no fixups triggered).
  Problem p = small_problem();
  p.flux_fixup = false;
  const SolveResult r1 = solve(p, 1e-11, 500);
  Problem p2 = p;
  p2.q.assign(p.cells(), 2.0);
  const SolveResult r2 = solve(p2, 1e-11, 500);
  for (std::size_t c = 0; c < p.cells(); c += 37)
    EXPECT_NEAR(r2.scalar_flux[c], 2.0 * r1.scalar_flux[c],
                1e-6 * r2.scalar_flux[c]);
}

// ---------------------------------------------------------------------------
// Wavefront schedule (Fig. 11 semantics + the KBA step count)
// ---------------------------------------------------------------------------

TEST(Schedule, CornerRankStartsFirst) {
  EXPECT_EQ(wavefront_step(0, 0, 4, 4, 0, 0, 0), 0);
  EXPECT_EQ(wavefront_step(3, 3, 4, 4, 0, 0, 0), 6);
  EXPECT_EQ(wavefront_step(3, 3, 4, 4, 1, 1, 0), 0);  // opposite corner entry
}

TEST(Schedule, StepGrowsWithWorkUnit) {
  EXPECT_EQ(wavefront_step(1, 2, 4, 4, 0, 0, 5), 8);
}

TEST(Schedule, TotalStepsMatchesClassicKbaFormula) {
  ScheduleParams p;
  p.px = 8;
  p.py = 4;
  p.k_blocks = 10;
  p.angle_blocks = 1;
  // 8 octants x 10 blocks + 4 fills x ((8-1)+(4-1)) = 80 + 40.
  EXPECT_EQ(total_steps(p), 120);
}

TEST(Schedule, SingleRankHasNoPipelinePenalty) {
  ScheduleParams p;
  p.px = p.py = 1;
  p.k_blocks = 5;
  p.angle_blocks = 2;
  EXPECT_EQ(total_steps(p), work_units_per_rank(p));
  EXPECT_DOUBLE_EQ(pipeline_efficiency(p), 1.0);
}

TEST(Schedule, EfficiencyDropsAsArrayGrows) {
  ScheduleParams small;
  small.px = small.py = 2;
  small.k_blocks = 20;
  ScheduleParams big = small;
  big.px = big.py = 32;
  EXPECT_GT(pipeline_efficiency(small), pipeline_efficiency(big));
}

TEST(Schedule, MoreKBlocksImproveEfficiency) {
  // The paper: "Blocking is used to achieve high parallel efficiency".
  ScheduleParams coarse;
  coarse.px = coarse.py = 16;
  coarse.k_blocks = 1;
  ScheduleParams fine = coarse;
  fine.k_blocks = 20;
  EXPECT_GT(pipeline_efficiency(fine), pipeline_efficiency(coarse));
}

TEST(Schedule, ActiveCells2dFormAntiDiagonal) {
  const auto cells = active_cells_2d(4, 4, 3);
  ASSERT_EQ(cells.size(), 4u);
  for (const auto& [i, j] : cells) EXPECT_EQ(i + j, 3);
}

TEST(Schedule, ActiveCellCountsMatchFig11Progression) {
  // Fig. 11 (2-D): the wavefront grows 1, 2, 3, 4 cells over the first
  // four steps from a corner.
  for (int step = 0; step < 4; ++step)
    EXPECT_EQ(active_cells_2d(4, 4, step).size(), static_cast<std::size_t>(step + 1));
}

}  // namespace
}  // namespace rr::sweep
