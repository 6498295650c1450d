// Numerical-quality tests for the transport discretization and remaining
// substrate edges: diamond differencing's second-order self-convergence,
// quadrature moment accuracy, the sim::Event primitive, and DaCS API
// contract enforcement.
#include <gtest/gtest.h>

#include <cmath>

#include "dacs/dacs.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"
#include "sweep/solver.hpp"
#include "topo/fat_tree.hpp"

namespace rr {
namespace {

// ---------------------------------------------------------------------------
// Diamond-difference self-convergence
// ---------------------------------------------------------------------------

/// Solve the same physical box (4 x 4 x 4 mean free paths, uniform
/// source, sigma_s/sigma_t = 0.5) at grid resolution n and return the
/// center-of-box scalar flux (averaged over the 8 central cells so the
/// sample point is identical across resolutions).
double center_flux_at_resolution(int n) {
  sweep::Problem p;
  p.nx = p.ny = p.nz = n;
  p.dx = p.dy = p.dz = 4.0 / n;
  p.sigma_t = 1.0;
  p.sigma_s = 0.5;
  p.flux_fixup = false;
  const sweep::SolveResult r = sweep::solve(p, 1e-11, 500);
  RR_ASSERT(r.converged);
  double sum = 0.0;
  for (int dz = 0; dz < 2; ++dz)
    for (int dy = 0; dy < 2; ++dy)
      for (int dx = 0; dx < 2; ++dx)
        sum += r.scalar_flux[p.idx(n / 2 - 1 + dx, n / 2 - 1 + dy, n / 2 - 1 + dz)];
  return sum / 8.0;
}

TEST(DiamondDifference, SecondOrderSelfConvergence) {
  // Diamond differencing is O(h^2): a grid halving in the asymptotic
  // regime must shrink the error by ~4x.  (The very coarse n=4 grid is
  // pre-asymptotic -- its error even changes sign -- so the ratio test
  // starts at n=8.)
  // Against a finite reference (n = 32), an exactly-O(h^2) scheme shows
  // e8/e16 = (4^2-1)/(2^2-1) = 5; cell-center superconvergence can push
  // the apparent order higher.  Require at least second order.
  const double ref = center_flux_at_resolution(32);
  const double e8 = std::abs(center_flux_at_resolution(8) - ref);
  const double e16 = std::abs(center_flux_at_resolution(16) - ref);
  EXPECT_GT(e8 / e16, 4.0);    // >= second order
  EXPECT_LT(e8 / e16, 25.0);   // sane (not accidental cancellation)
  EXPECT_LT(e16 / ref, 0.01);  // already within 1% at n = 16
}

TEST(DiamondDifference, LeakageConvergesToo) {
  auto leakage_at = [](int n) {
    sweep::Problem p;
    p.nx = p.ny = p.nz = n;
    p.dx = p.dy = p.dz = 4.0 / n;
    p.sigma_s = 0.5;
    p.flux_fixup = false;
    return sweep::solve(p, 1e-11, 500).leakage;
  };
  const double ref = leakage_at(32);
  const double e8 = std::abs(leakage_at(8) - ref);
  const double e16 = std::abs(leakage_at(16) - ref);
  EXPECT_GT(e8, e16);
  EXPECT_LT(e16 / ref, 0.01);
}

TEST(Quadrature, S6IntegratesEvenMomentsAccurately) {
  // Level-symmetric S6 integrates mu^2 exactly (= 1/3 over the sphere
  // with unit-normalized weights).
  double m2 = 0.0, m4 = 0.0;
  for (const sweep::Direction& d : sweep::s6_all_angles()) {
    m2 += d.weight * d.mu * d.mu;
    m4 += d.weight * d.mu * d.mu * d.mu * d.mu;
  }
  EXPECT_NEAR(m2, 1.0 / 3.0, 1e-6);
  EXPECT_NEAR(m4, 1.0 / 5.0, 0.02);  // S6 is not exact at order 4 everywhere
}

// ---------------------------------------------------------------------------
// sim::Event
// ---------------------------------------------------------------------------

sim::Task<void> waiter(sim::Event& ev, int& order, int& my_slot) {
  co_await ev.wait();
  my_slot = ++order;
}

TEST(Event, WakesAllWaiters) {
  sim::Simulator simulator;
  sim::TaskRegistry reg(simulator);
  sim::Event ev(simulator);
  int order = 0, a = 0, b = 0;
  reg.spawn(waiter(ev, order, a));
  reg.spawn(waiter(ev, order, b));
  simulator.schedule(Duration::microseconds(5), [&] { ev.set(); });
  EXPECT_EQ(reg.drain(), 2u);
  EXPECT_EQ(a + b, 3);  // both woke, in FIFO order 1 and 2
  EXPECT_TRUE(ev.is_set());
}

TEST(Event, WaitAfterSetCompletesImmediately) {
  sim::Simulator simulator;
  sim::TaskRegistry reg(simulator);
  sim::Event ev(simulator);
  ev.set();
  int order = 0, slot = 0;
  reg.spawn(waiter(ev, order, slot));
  reg.drain();
  EXPECT_EQ(slot, 1);
  EXPECT_EQ(simulator.now().ps(), 0);  // no time passed
}

TEST(Event, DoubleSetIsIdempotent) {
  sim::Simulator simulator;
  sim::Event ev(simulator);
  ev.set();
  ev.set();
  EXPECT_TRUE(ev.is_set());
}

// ---------------------------------------------------------------------------
// DaCS contract enforcement
// ---------------------------------------------------------------------------

topo::FatTree one_cu_tree() {
  topo::TopologyParams p;
  p.cu_count = 1;
  return topo::FatTree::build(p);
}

TEST(DacsContracts, AcceleratorToAcceleratorIsRejected) {
  // DaCS is parent-child only; the PPEs are not directly connected on
  // Roadrunner (Section IV.C).
  sim::Simulator simulator;
  const topo::FatTree tree = one_cu_tree();
  comm::SimNetwork net(simulator, tree);
  dacs::DacsRuntime rt(net);
  auto prog = [](dacs::Element ae) -> sim::Task<void> {
    const dacs::Wid w = ae.send(dacs::DeId{2}, 0, std::vector<double>{1.0});
    co_await ae.wait(w);
  };
  auto try_ae_to_ae = [&] {
    std::vector<sim::Task<void>> progs;
    progs.push_back(prog(rt.accelerator(0)));
    // A matching recv so the transfer (and its illegal crossing) starts.
    auto rprog = [](dacs::Element dst) -> sim::Task<void> {
      const dacs::Wid w = dst.recv(dacs::DeId{1}, 0);
      co_await dst.wait(w);
    };
    progs.push_back(rprog(rt.accelerator(1)));
    rt.run(std::move(progs));
  };
  EXPECT_DEATH(try_ae_to_ae(), "Precondition");
}

TEST(DacsContracts, OutOfRangePutIsRejected) {
  sim::Simulator simulator;
  const topo::FatTree tree = one_cu_tree();
  comm::SimNetwork net(simulator, tree);
  dacs::DacsRuntime rt(net);
  dacs::Element he = rt.host_element();
  const dacs::RemoteMem mem = he.create_remote_mem(4);
  EXPECT_DEATH(he.put(mem, 3, std::vector<double>{1.0, 2.0}), "Precondition");
}

}  // namespace
}  // namespace rr
