// Coverage of remaining public APIs: DMA engine corner cases, wavefront
// schedule arithmetic, power parameter sensitivities, fabric edge cases,
// logging, and stats edges.
#include <gtest/gtest.h>

#include "topo/fat_tree.hpp"
#include "arch/power.hpp"
#include "comm/fabric.hpp"
#include "spu/dma.hpp"
#include "sweep/schedule.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace rr {
namespace {

// ---------------------------------------------------------------------------
// DMA engine
// ---------------------------------------------------------------------------

TEST(DmaEngine, MultiCommandTransfersChargeIssueCost) {
  const spu::DmaEngine dma;
  // 64 KiB = four 16 KiB commands: one full setup + 3 x 30 ns issues.
  const Duration t = dma.transfer_time(DataSize::kib(64));
  const Duration wire = transfer_time(DataSize::kib(64), Bandwidth::gb_per_sec(25.6));
  EXPECT_NEAR(t.ns() - wire.ns(), 200.0 + 3 * 30.0, 0.5);
}

TEST(DmaEngine, EibNeverLimitsBelowMemoryInterface) {
  const spu::DmaEngine dma;
  // Even with all 8 SPEs active, the per-SPE share is memory-limited
  // (25.6/8 = 3.2 GB/s), not EIB-limited (153.6/8 = 19.2 GB/s).
  EXPECT_NEAR(dma.effective_bandwidth(8).gbps(), 25.6 / 8, 1e-9);
}

TEST(DmaEngine, CustomParamsRespected) {
  spu::DmaParams params;
  params.memory_interface = Bandwidth::gb_per_sec(10.0);
  const spu::DmaEngine dma(params);
  EXPECT_NEAR(dma.effective_bandwidth(1).gbps(), 10.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Wavefront schedule arithmetic
// ---------------------------------------------------------------------------

TEST(ScheduleArithmetic, CornerSelectionMirrorsIndices) {
  // All four corners: the entering rank computes at step w.
  for (int cx = 0; cx <= 1; ++cx)
    for (int cy = 0; cy <= 1; ++cy) {
      const int pi = cx == 0 ? 0 : 7;
      const int pj = cy == 0 ? 0 : 3;
      EXPECT_EQ(sweep::wavefront_step(pi, pj, 8, 4, cx, cy, 0), 0);
    }
}

TEST(ScheduleArithmetic, LastRankFinishesAtFillPlusWork) {
  const int steps = sweep::wavefront_step(7, 3, 8, 4, 0, 0, 9);
  EXPECT_EQ(steps, 7 + 3 + 9);
}

TEST(ScheduleArithmetic, WorkUnitsCountAllOctants) {
  sweep::ScheduleParams p;
  p.k_blocks = 5;
  p.angle_blocks = 2;
  EXPECT_EQ(sweep::work_units_per_rank(p), 8 * 5 * 2);
}

// ---------------------------------------------------------------------------
// Power model sensitivities
// ---------------------------------------------------------------------------

TEST(PowerModel, MoreCellPowerLowersEfficiency) {
  const arch::SystemSpec sys = arch::make_roadrunner();
  arch::PowerParams hot;
  hot.cell_socket_w = 120.0;
  const auto base = arch::estimate_power(sys, FlopRate::pflops(1.026));
  const auto hotter = arch::estimate_power(sys, FlopRate::pflops(1.026), hot);
  EXPECT_LT(hotter.linpack_mflops_per_watt, base.linpack_mflops_per_watt);
  EXPECT_GT(hotter.system_mw, base.system_mw);
}

TEST(PowerModel, EfficiencyScalesWithSustainedRate) {
  const arch::SystemSpec sys = arch::make_roadrunner();
  const auto half = arch::estimate_power(sys, FlopRate::pflops(0.513));
  const auto full = arch::estimate_power(sys, FlopRate::pflops(1.026));
  EXPECT_NEAR(full.linpack_mflops_per_watt / half.linpack_mflops_per_watt, 2.0, 1e-6);
}

TEST(PowerModel, NodePowerIsComponentSum) {
  const arch::SystemSpec sys = arch::make_roadrunner();
  arch::PowerParams p;
  const auto r = arch::estimate_power(sys, FlopRate::pflops(1.0), p);
  const double expected = 2 * p.opteron_socket_w + 4 * p.cell_socket_w +
                          3 * p.per_blade_overhead_w + p.expansion_card_w +
                          p.per_node_network_share_w;
  EXPECT_NEAR(r.node_w, expected, 1e-9);
}

// ---------------------------------------------------------------------------
// Fabric edge cases
// ---------------------------------------------------------------------------

TEST(FabricEdges, SelfLatencyIsZero) {
  static const topo::FatTree t = [] {
    topo::FatTreeParams p;
    p.cu_count = 1;
    return topo::FatTree::build(p);
  }();
  const comm::FabricModel fabric(t);
  EXPECT_EQ(fabric.zero_byte_latency(topo::NodeId{5}, topo::NodeId{5}).ps(), 0);
}

TEST(FabricEdges, SweepSkipsTheSource) {
  topo::FatTreeParams p;
  p.cu_count = 1;
  const topo::FatTree t = topo::FatTree::build(p);
  const comm::FabricModel fabric(t);
  const auto sweep = fabric.latency_sweep(topo::NodeId{42});
  EXPECT_EQ(sweep.size(), static_cast<std::size_t>(t.node_count() - 1));
  for (const auto& pt : sweep) EXPECT_NE(pt.node, 42);
}

TEST(FabricEdges, PinnedAlwaysBeatsDefaultAtLargeSizes) {
  topo::FatTreeParams p;
  p.cu_count = 2;
  const topo::FatTree t = topo::FatTree::build(p);
  const comm::FabricModel fabric(t);
  const DataSize big = DataSize::bytes(1'000'000);
  for (int d : {1, 100, 200}) {
    EXPECT_GT(fabric.large_message_bandwidth({0}, {d}, big, true).bps(),
              fabric.large_message_bandwidth({0}, {d}, big, false).bps());
  }
}

// ---------------------------------------------------------------------------
// Logging and stats edges
// ---------------------------------------------------------------------------

TEST(Log, LevelFilteringRoundTrips) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  RR_DEBUG("this is dropped " << 42);  // must not crash / emit
  set_log_level(before);
}

TEST(StatsEdges, SingleElementPercentiles) {
  const double xs[] = {5.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
}

TEST(StatsEdges, FitOnConstantYHasR2One) {
  const double xs[] = {1.0, 2.0, 3.0};
  const double ys[] = {4.0, 4.0, 4.0};
  const LinearFit f = fit_linear(xs, ys);
  EXPECT_NEAR(f.slope, 0.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(StatsEdges, SummaryOfIdenticalValuesHasZeroStddev) {
  const double xs[] = {2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(summarize(xs).stddev, 0.0);
}

}  // namespace
}  // namespace rr
