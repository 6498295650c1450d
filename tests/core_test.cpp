#include <gtest/gtest.h>

#include "arch/calibration.hpp"
#include "core/hybrid.hpp"
#include "core/roadrunner.hpp"

namespace rr::core {
namespace {

namespace cal = rr::arch::cal;

const RoadrunnerSystem& rr_full() {
  static const RoadrunnerSystem s = RoadrunnerSystem::full();
  return s;
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

TEST(RoadrunnerSystem, FullMachineHeadlineNumbers) {
  const RoadrunnerSystem& rr = rr_full();
  EXPECT_EQ(rr.node_count(), 3060);
  EXPECT_EQ(rr.spe_count(), 97920);
  EXPECT_NEAR(rr.peak_dp().in_pflops(), 1.38, 0.005);
  EXPECT_NEAR(rr.linpack().sustained.in_pflops(), 1.026, 0.03);
  EXPECT_NEAR(rr.power().linpack_mflops_per_watt, 437, 437 * 0.05);
}

TEST(RoadrunnerSystem, QueriesAgreeWithSubsystems) {
  const RoadrunnerSystem& rr = rr_full();
  EXPECT_EQ(rr.hop_count(topo::NodeId{0}, topo::NodeId{1}), 1);
  EXPECT_EQ(rr.hop_count(topo::NodeId{0}, topo::NodeId{3059}), 7);
  EXPECT_NEAR(rr.mpi_latency(topo::NodeId{0}, topo::NodeId{1}).us(), 2.5, 0.01);
}

TEST(RoadrunnerSystem, ReducedMachineScalesDown) {
  const RoadrunnerSystem rr = RoadrunnerSystem::with_cu_count(4);
  EXPECT_EQ(rr.node_count(), 720);
  EXPECT_NEAR(rr.peak_dp().in_tflops(), 4 * 80.9, 0.5);
}

TEST(RoadrunnerSystem, DesignLimitIs24Cus) {
  EXPECT_EQ(RoadrunnerSystem::with_cu_count(24).node_count(), 24 * 180);
  EXPECT_DEATH(RoadrunnerSystem::with_cu_count(25), "Precondition");
}

// ---------------------------------------------------------------------------
// Hybrid usage modes (Section III)
// ---------------------------------------------------------------------------

KernelProfile compute_heavy() {
  KernelProfile k;
  k.name = "compute-heavy";
  k.flops_per_byte = 50.0;
  return k;
}

KernelProfile streaming() {
  KernelProfile k;
  k.name = "streaming";
  k.flops_per_byte = 0.25;
  return k;
}

TEST(Hybrid, ComputeHeavyKernelLovesTheCell) {
  const HybridRuntime rt(rr_full());
  const DataSize d = DataSize::mib(64);
  const auto host = rt.run(UsageMode::kHostOnly, compute_heavy(), d);
  const auto acc = rt.run(UsageMode::kAccelerator, compute_heavy(), d);
  const auto spe = rt.run(UsageMode::kSpeCentric, compute_heavy(), d);
  EXPECT_LT(acc.total.sec(), host.total.sec());
  EXPECT_LT(spe.total.sec(), acc.total.sec());
  // Compute-bound limit: speedup approaches the sustained-rate ratio.
  const double rate_ratio = rt.cell_rate(compute_heavy()).in_flops() /
                            rt.host_rate(compute_heavy()).in_flops();
  EXPECT_NEAR(spe.total.sec() > 0 ? host.total.sec() / spe.total.sec() : 0,
              rate_ratio, rate_ratio * 0.05);
}

TEST(Hybrid, StreamingKernelStaysOnTheHost) {
  const HybridRuntime rt(rr_full());
  const DataSize d = DataSize::mib(16);
  const auto host = rt.run(UsageMode::kHostOnly, streaming(), d);
  const auto acc = rt.run(UsageMode::kAccelerator, streaming(), d);
  EXPECT_LT(host.total.sec(), acc.total.sec());
}

TEST(Hybrid, SpeCentricAvoidsPerCallTransfers) {
  const HybridRuntime rt(rr_full());
  const auto acc = rt.run(UsageMode::kAccelerator, streaming(), DataSize::mib(16));
  const auto spe = rt.run(UsageMode::kSpeCentric, streaming(), DataSize::mib(16));
  EXPECT_GT(acc.transfer.sec(), 0.0);
  EXPECT_EQ(spe.transfer.sec(), 0.0);
  EXPECT_LT(spe.total.sec(), acc.total.sec());
}

TEST(Hybrid, BreakevenMovesWithIntensity) {
  const HybridRuntime rt(rr_full());
  KernelProfile mid = compute_heavy();
  mid.flops_per_byte = 2.0;
  const DataSize be_heavy = rt.accelerator_breakeven(compute_heavy());
  const DataSize be_mid = rt.accelerator_breakeven(mid);
  // The heavier the kernel, the earlier offload pays off.
  EXPECT_LE(be_heavy.b(), be_mid.b());
}

TEST(Hybrid, BreakevenIsConsistent) {
  const HybridRuntime rt(rr_full());
  KernelProfile k = compute_heavy();
  k.flops_per_byte = 4.0;
  const DataSize be = rt.accelerator_breakeven(k);
  if (be.b() > 512 && be < DataSize::gib(15)) {
    const auto below = rt.run(UsageMode::kAccelerator, k, DataSize::bytes(be.b() / 2));
    const auto below_host = rt.run(UsageMode::kHostOnly, k, DataSize::bytes(be.b() / 2));
    EXPECT_GE(below.total.sec(), below_host.total.sec());
    const auto above = rt.run(UsageMode::kAccelerator, k, DataSize::bytes(be.b() * 2));
    const auto above_host = rt.run(UsageMode::kHostOnly, k, DataSize::bytes(be.b() * 2));
    EXPECT_LT(above.total.sec(), above_host.total.sec());
  }
}

TEST(Hybrid, BestCasePcieShrinksTransferCost) {
  const HybridRuntime early(rr_full(), false);
  const HybridRuntime best(rr_full(), true);
  const auto a = early.run(UsageMode::kAccelerator, streaming(), DataSize::mib(32));
  const auto b = best.run(UsageMode::kAccelerator, streaming(), DataSize::mib(32));
  EXPECT_LT(b.transfer.sec(), a.transfer.sec());
}

TEST(Hybrid, AchievedRateNeverExceedsSustained) {
  const HybridRuntime rt(rr_full());
  for (const UsageMode mode :
       {UsageMode::kHostOnly, UsageMode::kAccelerator, UsageMode::kSpeCentric}) {
    const auto e = rt.run(mode, compute_heavy(), DataSize::mib(8));
    const double cap = std::max(rt.cell_rate(compute_heavy()).in_flops(),
                                rt.host_rate(compute_heavy()).in_flops());
    EXPECT_LE(e.achieved.in_flops(), cap * 1.0001) << usage_mode_name(mode);
  }
}

TEST(Hybrid, ModeNamesAreStable) {
  EXPECT_STREQ(usage_mode_name(UsageMode::kHostOnly), "host-only (Opterons)");
  EXPECT_NE(std::string(usage_mode_name(UsageMode::kSpeCentric)).find("SPE"),
            std::string::npos);
}

}  // namespace
}  // namespace rr::core
