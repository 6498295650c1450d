#include <gtest/gtest.h>

#include "topo/fat_tree.hpp"
#include "cml/cml.hpp"
#include "comm/collectives.hpp"
#include "io/io_model.hpp"

namespace rr {
namespace {

// ---------------------------------------------------------------------------
// Collective cost models
// ---------------------------------------------------------------------------

TEST(Collectives, RoundCountsAreLogarithmic) {
  EXPECT_EQ(comm::barrier_rounds(1), 0);
  EXPECT_EQ(comm::barrier_rounds(2), 1);
  EXPECT_EQ(comm::barrier_rounds(8), 3);
  EXPECT_EQ(comm::barrier_rounds(9), 4);
  EXPECT_EQ(comm::barrier_rounds(97920), 17);
}

TEST(Collectives, LegsAreOrderedByDistance) {
  const auto legs = comm::CollectiveLegs::roadrunner(DataSize::bytes(32));
  EXPECT_LT(legs.intra_socket.us(), legs.cross_socket.us());
  EXPECT_LT(legs.cross_socket.us(), legs.internode.us());
}

TEST(Collectives, BarrierTimeGrowsWithRanks) {
  const auto legs = comm::CollectiveLegs::roadrunner(DataSize::bytes(32));
  Duration prev = Duration::zero();
  for (const int n : {2, 8, 32, 1024, 97920}) {
    const Duration t = comm::barrier_time(n, legs);
    EXPECT_GT(t.ps(), prev.ps()) << n;
    prev = t;
  }
}

TEST(Collectives, IntraSocketBarrierUsesOnlyEibLegs) {
  const auto legs = comm::CollectiveLegs::roadrunner(DataSize::bytes(32));
  const Duration t = comm::barrier_time(8, legs);
  EXPECT_NEAR(t.us(), 3 * legs.intra_socket.us(), 1e-9);
}

TEST(Collectives, FullMachineBarrierIsTensToHundredsOfMicroseconds) {
  const auto legs = comm::CollectiveLegs::roadrunner(DataSize::bytes(32));
  const Duration t = comm::barrier_time(97920, legs);
  EXPECT_GT(t.us(), 50.0);
  EXPECT_LT(t.us(), 500.0);
}

TEST(Collectives, BestCasePcieShrinksTheWideLegs) {
  const auto early = comm::CollectiveLegs::roadrunner(DataSize::bytes(32), false);
  const auto best = comm::CollectiveLegs::roadrunner(DataSize::bytes(32), true);
  EXPECT_LT(best.internode.us(), early.internode.us());
  EXPECT_LT(best.cross_socket.us(), early.cross_socket.us());
  EXPECT_NEAR(best.intra_socket.us(), early.intra_socket.us(), 1e-9);
}

TEST(Collectives, AllreduceIsTwiceBroadcast) {
  const auto legs = comm::CollectiveLegs::roadrunner(DataSize::bytes(64));
  EXPECT_NEAR(comm::allreduce_time(4096, legs).us(),
              2 * comm::broadcast_time(4096, legs).us(), 1e-9);
}

// Cross-validation: the analytic barrier bound vs the CML DES execution.
TEST(Collectives, AnalyticBarrierBoundsTheDesWithinSocket) {
  topo::FatTreeParams tp;
  tp.cu_count = 1;
  const topo::FatTree topo = topo::FatTree::build(tp);
  sim::Simulator simulator;
  cml::CmlConfig config;
  config.nodes = 1;
  config.cells_per_node = 1;
  config.spes_per_cell = 8;
  cml::CmlWorld world(simulator, topo, config);
  const TimePoint t0 = simulator.now();
  world.run([&](cml::CmlContext ctx) -> sim::Task<void> {
    co_await ctx.barrier();
  });
  const double des_us = (simulator.now() - t0).us();
  const auto legs = comm::CollectiveLegs::roadrunner(cml::message_bytes({}));
  const double model_us = comm::barrier_time(8, legs).us();
  // The closed form tracks the DES within a factor ~2 (the DES pays
  // per-message zero-delay scheduling and mailbox handoffs).
  EXPECT_GT(des_us, model_us * 0.5);
  EXPECT_LT(des_us, model_us * 2.5);
}

// ---------------------------------------------------------------------------
// I/O subsystem
// ---------------------------------------------------------------------------

io::IoSubsystem full_io() { return io::IoSubsystem(arch::make_roadrunner()); }

TEST(IoSubsystem, TwoHundredFourIoNodes) {
  EXPECT_EQ(full_io().io_node_count(), 17 * 12);
}

TEST(IoSubsystem, AggregateBandwidthIsTensOfGBs) {
  const double gbps = full_io().aggregate_bandwidth().gbps();
  EXPECT_GT(gbps, 30.0);
  EXPECT_LT(gbps, 150.0);
}

TEST(IoSubsystem, CheckpointMovesAllNodeMemory) {
  const io::IoSubsystem io = full_io();
  // 32 GiB per triblade x 3,060 nodes ~ 105 TB.
  EXPECT_NEAR(static_cast<double>(io.checkpoint_bytes().b()) / 1e12, 105.0, 3.0);
}

TEST(IoSubsystem, FullCheckpointTakesTensOfMinutes) {
  const Duration t = full_io().full_checkpoint();
  EXPECT_GT(t.sec(), 10 * 60.0);
  EXPECT_LT(t.sec(), 60 * 60.0);
}

TEST(IoSubsystem, FileSystemSideIsTheBottleneck) {
  const io::IoSubsystem io = full_io();
  // Compute side: 3,060 nodes x 2 GB/s x 0.9 ~ 5.5 TB/s >> ~71 GB/s FS.
  const Duration t = io.collective_write(DataSize::gib(1));
  const double implied_bps =
      static_cast<double>(DataSize::gib(1).b()) * 3060 / t.sec();
  EXPECT_NEAR(implied_bps, io.aggregate_bandwidth().bps(),
              io.aggregate_bandwidth().bps() * 0.01);
}

TEST(IoSubsystem, MetadataStormScalesWithRanksPerIoNode) {
  const io::IoSubsystem io = full_io();
  const Duration one_wave = io.metadata_storm(204);
  const Duration many = io.metadata_storm(97920);
  EXPECT_NEAR(many.sec() / one_wave.sec(), 97920.0 / 204.0, 1.0);
}

TEST(IoSubsystem, SharedInputReadIsCheap) {
  const io::IoSubsystem io = full_io();
  EXPECT_LT(io.shared_input_read(DataSize::mib(1)).sec(), 0.01);
}

TEST(IoSubsystem, ZeroByteWriteIsFree) {
  EXPECT_EQ(full_io().collective_write(DataSize::zero()).ps(), 0);
}

}  // namespace
}  // namespace rr
