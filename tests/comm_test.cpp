#include <gtest/gtest.h>

#include "topo/fat_tree.hpp"
#include "arch/calibration.hpp"
#include "comm/channel.hpp"
#include "comm/fabric.hpp"
#include "comm/network.hpp"
#include "comm/path.hpp"
#include "obs/metrics.hpp"
#include "sim/task.hpp"

namespace rr::comm {
namespace {

namespace cal = rr::arch::cal;

constexpr DataSize k1MB = DataSize::bytes(1'000'000);

// ---------------------------------------------------------------------------
// Channel model mechanics
// ---------------------------------------------------------------------------

TEST(Channel, ZeroByteCostsLatencyOnly) {
  const ChannelModel ch(dacs_pcie());
  EXPECT_EQ(ch.one_way(DataSize::zero()).us(), cal::kAnchorDacsLatency.us());
}

TEST(Channel, OneWayTimeIsMonotoneInSize) {
  const ChannelModel ch(mpi_infiniband(true));
  Duration prev = Duration::zero();
  for (std::int64_t n = 1; n <= (1 << 21); n *= 2) {
    const Duration t = ch.one_way(DataSize::bytes(n));
    EXPECT_GE(t.ps(), prev.ps()) << "n=" << n;
    prev = t;
  }
}

TEST(Channel, BandwidthApproachesAsymptote) {
  const ChannelModel ch(mpi_infiniband(true));
  const Bandwidth big = ch.uni_bandwidth(DataSize::mib(16));
  EXPECT_NEAR(big.mbps(), cal::kAnchorIbCores13.mbps(), cal::kAnchorIbCores13.mbps() * 0.05);
}

TEST(Channel, BidirectionalIsSlowerPerDirection) {
  const ChannelModel ch(dacs_pcie());
  EXPECT_GT(ch.one_way_bidirectional(k1MB).ps(), ch.one_way(k1MB).ps());
}

TEST(Channel, WithHopsAddsSwitchLatency) {
  const ChannelParams base = mpi_infiniband(true);
  const ChannelParams far = with_hops(base, 7);
  EXPECT_NEAR(far.latency.us() - base.latency.us(), 7 * 0.22, 1e-9);
}

// ---------------------------------------------------------------------------
// Fig. 6: zero-byte Cell-to-Cell latency breakdown
// ---------------------------------------------------------------------------

TEST(Fig6, TotalLatencyNearPaper) {
  const PathModel path = cell_to_cell_internode();
  // Paper: 8.78 us end-to-end; our model composes to within ~5%.
  EXPECT_NEAR(path.zero_byte_latency().us(), cal::kAnchorCellToCellLatency.us(),
              cal::kAnchorCellToCellLatency.us() * 0.05);
}

TEST(Fig6, DacsLegsDominate) {
  const PathModel path = cell_to_cell_internode();
  const auto breakdown = path.latency_breakdown();
  ASSERT_EQ(breakdown.size(), 5u);
  double dacs_total = 0.0;
  for (const auto& [name, lat] : breakdown)
    if (name.find("DaCS") != std::string::npos) dacs_total += lat.us();
  // The paper's headline: "the major communication cost resides in the
  // communication between the Cell and the Opteron" (2 x 3.19 of 8.78).
  EXPECT_NEAR(dacs_total, 2 * cal::kAnchorDacsLatency.us(), 1e-9);
  EXPECT_GT(dacs_total / path.zero_byte_latency().us(), 0.5);
}

TEST(Fig6, LocalLegsAreSmall) {
  const auto breakdown = cell_to_cell_internode().latency_breakdown();
  EXPECT_NEAR(breakdown.front().second.us(), 0.12, 1e-9);
  EXPECT_NEAR(breakdown.back().second.us(), 0.12, 1e-9);
}

// ---------------------------------------------------------------------------
// Fig. 7: intranode and internode Cell-to-Cell bandwidth
// ---------------------------------------------------------------------------

TEST(Fig7, IntranodeUnidirectionalTimes2) {
  const PathModel path = ppe_opteron_intranode();
  const double x2 = path.uni_bandwidth(k1MB).mbps() * 2.0;
  EXPECT_NEAR(x2, cal::kAnchorIntranodeUniX2.mbps(),
              cal::kAnchorIntranodeUniX2.mbps() * 0.05);
}

TEST(Fig7, IntranodeBidirectionalSum) {
  const PathModel path = ppe_opteron_intranode();
  EXPECT_NEAR(path.bidir_bandwidth_sum(k1MB).mbps(), cal::kAnchorIntranodeBidir.mbps(),
              cal::kAnchorIntranodeBidir.mbps() * 0.05);
}

TEST(Fig7, InternodeUnidirectionalTimes2) {
  const PathModel path = cell_to_cell_allpairs();
  const double x2 = path.uni_bandwidth(k1MB).mbps() * 2.0;
  EXPECT_NEAR(x2, cal::kAnchorInternodeUniX2.mbps(),
              cal::kAnchorInternodeUniX2.mbps() * 0.08);
}

TEST(Fig7, InternodeBidirectionalSum) {
  const PathModel path = cell_to_cell_allpairs();
  EXPECT_NEAR(path.bidir_bandwidth_sum(k1MB).mbps(), cal::kAnchorInternodeBidir.mbps(),
              cal::kAnchorInternodeBidir.mbps() * 0.08);
}

TEST(Fig7, BidirEfficiencyMatchesPaperPercentages) {
  // Intranode: bidir is ~64% of 2x uni; internode: ~70%.
  const PathModel intra = ppe_opteron_intranode();
  const double intra_ratio = intra.bidir_bandwidth_sum(k1MB).mbps() /
                             (2.0 * intra.uni_bandwidth(k1MB).mbps());
  EXPECT_NEAR(intra_ratio, 0.64, 0.03);
  const PathModel inter = cell_to_cell_allpairs();
  const double inter_ratio = inter.bidir_bandwidth_sum(k1MB).mbps() /
                             (2.0 * inter.uni_bandwidth(k1MB).mbps());
  EXPECT_NEAR(inter_ratio, 0.70, 0.03);
}

TEST(Fig7, IntranodeBeatsInternodeEverywhere) {
  const PathModel intra = ppe_opteron_intranode();
  const PathModel inter = cell_to_cell_allpairs();
  for (std::int64_t n = 16; n <= 1'000'000; n *= 4)
    EXPECT_GT(intra.uni_bandwidth(DataSize::bytes(n)).mbps(),
              inter.uni_bandwidth(DataSize::bytes(n)).mbps());
}

// ---------------------------------------------------------------------------
// Fig. 8: Opteron-to-Opteron bandwidth by core pair
// ---------------------------------------------------------------------------

TEST(Fig8, NearCoresReach1478) {
  const PathModel p = opteron_mpi_internode(true, true);
  EXPECT_NEAR(p.uni_bandwidth(DataSize::mib(8)).mbps(), 1478, 1478 * 0.05);
}

TEST(Fig8, FarCoresReach1087) {
  const PathModel p = opteron_mpi_internode(false, false);
  EXPECT_NEAR(p.uni_bandwidth(DataSize::mib(8)).mbps(), 1087, 1087 * 0.05);
}

TEST(Fig8, MixedPairIsInBetween) {
  const double near = opteron_mpi_internode(true, true).uni_bandwidth(DataSize::mib(8)).mbps();
  const double far = opteron_mpi_internode(false, false).uni_bandwidth(DataSize::mib(8)).mbps();
  const double mixed = opteron_mpi_internode(false, true).uni_bandwidth(DataSize::mib(8)).mbps();
  EXPECT_GT(mixed, far);
  EXPECT_LT(mixed, near);
}

// ---------------------------------------------------------------------------
// Fig. 9: DaCS/PCIe vs MPI/InfiniBand
// ---------------------------------------------------------------------------

TEST(Fig9, DacsBelowHalfOfInfinibandAtSmallSizes) {
  // The paper: "at smaller messages in the range 0 to 20KB, DaCS achieves
  // less than half the bandwidth of InfiniBand."  At very small sizes both
  // stacks are latency-bound (ratio -> 3.19/2.94); the >2x gap opens once
  // serialization through DaCS's bounce buffers starts to matter.
  const ChannelModel dacs{dacs_pcie()};
  const ChannelModel ib{with_hops(mpi_infiniband_default_params(), 3)};
  for (std::int64_t n : {2048, 4096, 8192, 16384}) {
    const double ratio = ib.uni_bandwidth(DataSize::bytes(n)).mbps() /
                         dacs.uni_bandwidth(DataSize::bytes(n)).mbps();
    EXPECT_GT(ratio, 2.0) << "n=" << n;
    EXPECT_LT(ratio, 5.0) << "n=" << n;
  }
  // Below that, the gap narrows but InfiniBand still wins.
  const double tiny_ratio = ib.uni_bandwidth(DataSize::bytes(256)).mbps() /
                            dacs.uni_bandwidth(DataSize::bytes(256)).mbps();
  EXPECT_GT(tiny_ratio, 1.0);
}

TEST(Fig9, RatioApproachesOneAtLargeSizes) {
  const ChannelModel dacs{dacs_pcie()};
  const ChannelModel ib{with_hops(mpi_infiniband_default_params(), 3)};
  const double ratio = ib.uni_bandwidth(DataSize::mib(1)).mbps() /
                       dacs.uni_bandwidth(DataSize::mib(1)).mbps();
  EXPECT_NEAR(ratio, 1.0, 0.1);
}

// ---------------------------------------------------------------------------
// Fig. 10: latency sweep over the full fabric
// ---------------------------------------------------------------------------

class Fig10Test : public ::testing::Test {
 protected:
  static const topo::FatTree& topo() {
    static const topo::FatTree t = topo::FatTree::roadrunner();
    return t;
  }
};

TEST_F(Fig10Test, PlateauLatenciesMatchHopClasses) {
  const FabricModel fabric(topo());
  // Same crossbar: 1 hop -> 2.5 us floor.
  EXPECT_NEAR(fabric.zero_byte_latency(topo::NodeId{0}, topo::NodeId{1}).us(), 2.5, 0.01);
  // Same CU: 3 hops -> ~3 us.
  EXPECT_NEAR(fabric.zero_byte_latency(topo::NodeId{0}, topo::NodeId{100}).us(), 2.94, 0.01);
  // CUs 2-12, different crossbar: 5 hops -> ~3.5 us.
  EXPECT_NEAR(fabric.zero_byte_latency(topo::NodeId{0}, topo::NodeId{180 * 3 + 100}).us(),
              3.38, 0.01);
  // CUs 13-17, different crossbar: 7 hops -> just under 4 us.
  EXPECT_NEAR(fabric.zero_byte_latency(topo::NodeId{0}, topo::NodeId{180 * 14 + 100}).us(),
              3.82, 0.01);
}

TEST_F(Fig10Test, SweepCoversAllNodesOnce) {
  const FabricModel fabric(topo());
  const auto sweep = fabric.latency_sweep(topo::NodeId{0});
  EXPECT_EQ(sweep.size(), 3059u);
}

TEST_F(Fig10Test, SweepHasFourPlateaus) {
  const FabricModel fabric(topo());
  const auto sweep = fabric.latency_sweep(topo::NodeId{0});
  std::array<int, 8> hop_counts{};
  for (const auto& pt : sweep) {
    ASSERT_GE(pt.hops, 1);
    ASSERT_LE(pt.hops, 7);
    ++hop_counts[pt.hops];
  }
  EXPECT_EQ(hop_counts[1], 7);
  EXPECT_EQ(hop_counts[3], 260);
  EXPECT_EQ(hop_counts[5], 1932);
  EXPECT_EQ(hop_counts[7], 860);
}

TEST_F(Fig10Test, RemoteCusShowPeriodicNearCrossbarDips) {
  // Within each first-side remote CU, the nodes on the crossbar matching
  // node 0's crossbar are 3 hops instead of 5 (the periodic dips).
  const FabricModel fabric(topo());
  for (int cu = 1; cu <= 11; ++cu) {
    const int base = cu * 180;
    EXPECT_EQ(topo().hop_count(topo::NodeId{0}, topo::NodeId{base + 3}), 3);
    EXPECT_EQ(topo().hop_count(topo::NodeId{0}, topo::NodeId{base + 100}), 5);
  }
}

TEST_F(Fig10Test, OneMegabyteBandwidthDefaultVsPinned) {
  const FabricModel fabric(topo());
  const Bandwidth dflt =
      fabric.average_bandwidth(topo::NodeId{0}, k1MB, /*pinned=*/false);
  const Bandwidth pinned =
      fabric.average_bandwidth(topo::NodeId{0}, k1MB, /*pinned=*/true);
  EXPECT_NEAR(dflt.mbps(), cal::kAnchorMpi1MbDefault.mbps(),
              cal::kAnchorMpi1MbDefault.mbps() * 0.05);
  EXPECT_NEAR(pinned.gbps(), cal::kAnchorMpi1MbPinned.gbps(),
              cal::kAnchorMpi1MbPinned.gbps() * 0.08);
}

// ---------------------------------------------------------------------------
// DES transport
// ---------------------------------------------------------------------------

/// An SPE message from Cell `src_cell` of node `src` to Cell 0 of node
/// `dst`: SPE->PPE, the source Cell's PCIe link, InfiniBand, the
/// destination Cell's PCIe link, PPE->SPE.
sim::Task<void> do_relay(SimNetwork& net, int src, int src_cell, int dst,
                         DataSize n, TimePoint& done) {
  co_await net.spe_transfer(src, src_cell, dst, 0, n);
  done = net.simulator().now();
}

/// The uncontended time of do_relay's message.
Duration relay_time(const SimNetwork& net, int src, int dst, DataSize n) {
  return net.local_time(n) * 2 + net.dacs_time(n) * 2 + net.ib_time(src, dst, n);
}

TEST(SimNetwork, IbTransferTakesModelTime) {
  sim::Simulator sim;
  sim::TaskRegistry reg(sim);
  topo::FatTreeParams p;
  p.cu_count = 2;
  const topo::FatTree t = topo::FatTree::build(p);
  SimNetwork net(sim, t);
  TimePoint done;
  reg.spawn(do_relay(net, 0, 0, 100, DataSize::kib(4), done));
  reg.drain();
  EXPECT_EQ((done - TimePoint::origin()).ps(),
            relay_time(net, 0, 100, DataSize::kib(4)).ps());
  EXPECT_EQ(net.messages_sent(), 3u);  // two PCIe legs and the IB leg
}

TEST(SimNetwork, SenderHcaSerializesConcurrentSends) {
  sim::Simulator sim;
  sim::TaskRegistry reg(sim);
  topo::FatTreeParams p;
  p.cu_count = 2;
  const topo::FatTree t = topo::FatTree::build(p);
  SimNetwork net(sim, t);
  // From two Cells of node 0: their PCIe legs overlap, and both messages
  // reach node 0's HCA at once.
  TimePoint done1, done2;
  reg.spawn(do_relay(net, 0, 0, 100, k1MB, done1));
  reg.spawn(do_relay(net, 0, 1, 200, k1MB, done2));
  reg.drain();
  EXPECT_EQ((done1 - TimePoint::origin()).ps(), relay_time(net, 0, 100, k1MB).ps());
  // The second waited for the first to release the HCA.
  EXPECT_EQ((done2 - done1).ps(), net.ib_time(0, 200, k1MB).ps());
}

TEST(SimNetwork, BestCasePcieIsFasterThanDacs) {
  sim::Simulator sim;
  topo::FatTreeParams p;
  p.cu_count = 1;
  const topo::FatTree t = topo::FatTree::build(p);
  SimNetwork early(sim, t, NetworkConfig{4, false});
  SimNetwork best(sim, t, NetworkConfig{4, true});
  EXPECT_LT(best.dacs_time(k1MB).ps(), early.dacs_time(k1MB).ps());
  EXPECT_LT(best.dacs_time(DataSize::zero()).ps(), early.dacs_time(DataSize::zero()).ps());
}

TEST(SimNetwork, IbLegMatchesFig10Latency) {
  // The DES's zero-byte IB leg is Fig. 10's MPI latency, for one
  // destination in each Table I hop class from node 0.
  sim::Simulator sim;
  const topo::FatTree t = topo::FatTree::roadrunner();
  const SimNetwork net(sim, t);
  const FabricModel fabric(t);
  for (const int hops : {1, 3, 5, 7}) {
    int d = 1;
    while (d < t.node_count() && t.hop_count(topo::NodeId{0}, topo::NodeId{d}) != hops) ++d;
    ASSERT_LT(d, t.node_count()) << hops << " hops";
    EXPECT_EQ(net.ib_time(0, d, DataSize::zero()).ps(),
              fabric.zero_byte_latency(topo::NodeId{0}, topo::NodeId{d}).ps())
        << hops << " hops";
  }
}

TEST(SimNetwork, BusyTimeIsTheSumOfServiceTimes) {
  sim::Simulator sim;
  sim::TaskRegistry reg(sim);
  topo::FatTreeParams p;
  p.cu_count = 2;
  const topo::FatTree t = topo::FatTree::build(p);
  SimNetwork net(sim, t);
  const DataSize n = DataSize::kib(4);
  constexpr int k = 5;
  for (int i = 0; i < k; ++i) {
    reg.spawn(net.spe_transfer(0, 0, 100, 0, n));  // PCIe, IB, PCIe
    reg.spawn(net.dacs_transfer(1, 2, n));
    reg.spawn(net.spe_transfer(1, 3, 1, 3, n));  // one Cell: the EIB
  }
  reg.drain();
  EXPECT_EQ(net.ib_busy(0).ps(), (net.ib_time(0, 100, n) * k).ps());
  EXPECT_EQ(net.pcie_busy(0, 0).ps(), (net.dacs_time(n) * k).ps());
  EXPECT_EQ(net.pcie_busy(100, 0).ps(), (net.dacs_time(n) * k).ps());
  EXPECT_EQ(net.pcie_busy(1, 2).ps(), (net.dacs_time(n) * k).ps());
  EXPECT_EQ(net.eib_busy().ps(), (net.eib_time(n) * k).ps());
  EXPECT_EQ(net.ib_busy(1).ps(), 0);
  EXPECT_EQ(net.pcie_busy(1, 0).ps(), 0);
  EXPECT_EQ(net.messages_sent(), 5u * k);
}

TEST(SimNetwork, EibGaugeIsTheMachineWideBusyTime) {
  // Two Cells' EIBs busy at once: their summed service time is twice the
  // elapsed time, so the EIB is exported in seconds, not as a utilization.
  sim::Simulator sim;
  sim::TaskRegistry reg(sim);
  topo::FatTreeParams p;
  p.cu_count = 1;
  const topo::FatTree t = topo::FatTree::build(p);
  SimNetwork net(sim, t);
  const DataSize n = DataSize::kib(16);
  reg.spawn(net.spe_transfer(0, 0, 0, 0, n));
  reg.spawn(net.spe_transfer(0, 1, 0, 1, n));
  reg.drain();
  obs::MetricsRegistry metrics;
  net.export_metrics(metrics);
  const obs::Snapshot snap = metrics.snapshot();
  const obs::MetricSnapshot* busy = snap.find("net.link.eib.busy_s");
  ASSERT_NE(busy, nullptr);
  EXPECT_DOUBLE_EQ(busy->value, (net.eib_time(n) * 2).sec());
  EXPECT_EQ(snap.find("net.link.eib.utilization"), nullptr);
}

}  // namespace
}  // namespace rr::comm
