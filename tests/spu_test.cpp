#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "arch/calibration.hpp"
#include "spu/dma.hpp"
#include "spu/kernels.hpp"
#include "spu/microbench.hpp"
#include "spu/pipeline.hpp"

namespace rr::spu {
namespace {

namespace cal = rr::arch::cal;

const SpuPipeline& pxc() {
  static const SpuPipeline p{PipelineSpec::powerxcell_8i()};
  return p;
}
const SpuPipeline& cbe() {
  static const SpuPipeline p{PipelineSpec::cell_be()};
  return p;
}

// ---------------------------------------------------------------------------
// Pipeline mechanics
// ---------------------------------------------------------------------------

TEST(Pipeline, SingleInstructionTakesItsLatency) {
  const Program p = {op(IClass::kFP6, 1, 8)};
  EXPECT_EQ(pxc().run(p).cycles, 6u);
  const Program q = {op(IClass::kFX2, 1, 8)};
  EXPECT_EQ(pxc().run(q).cycles, 2u);
}

TEST(Pipeline, DependentPairSerializes) {
  const Program p = {op(IClass::kFP6, 1, 8), op(IClass::kFP6, 2, 1)};
  // Second issues at cycle 6, result at 12; cycles 1-5 issue nothing.
  const RunStats s = pxc().run(p);
  EXPECT_EQ(s.cycles, 12u);
  EXPECT_EQ(s.idle_cycles, 5u);
  EXPECT_EQ(s.dual_issue_cycles, 0u);
}

TEST(Pipeline, IndependentSamePipeIssueOnePerCycle) {
  Program p;
  for (int i = 0; i < 10; ++i) p.push_back(op(IClass::kFX2, 16 + i, 8));
  // Issue 0..9, last result at 9 + 2 = 11.
  EXPECT_EQ(pxc().run(p).cycles, 11u);
}

TEST(Pipeline, EvenOddPairDualIssues) {
  const Program p = {op(IClass::kFX2, 1, 8), op(IClass::kLS, 2, 8)};
  const RunStats s = pxc().run(p);
  EXPECT_EQ(s.dual_issue_cycles, 1u);
  EXPECT_EQ(s.cycles, 6u);  // both issue at 0; LS result at 6
}

TEST(Pipeline, InOrderBlocksBehindStall) {
  // FX2 dependent on FP6 blocks the later independent LS (in-order issue).
  const Program p = {op(IClass::kFP6, 1, 8), op(IClass::kFX2, 2, 1),
                     op(IClass::kLS, 3, 8)};
  const RunStats s = pxc().run(p);
  // FP6 at 0; FX2 waits until 6 (result 8); LS pairs with FX2 at 6 (odd pipe),
  // result at 12.  Cycles 1-5 are idle: the LS is ready but may not pass.
  EXPECT_EQ(s.cycles, 12u);
  EXPECT_EQ(s.idle_cycles, 5u);
  EXPECT_EQ(s.dual_issue_cycles, 1u);
}

TEST(Pipeline, CellBeFpdGlobalStallBlocksEverything) {
  const Program p = {op(IClass::kFPD, 1, 8), op(IClass::kFX2, 2, 8)};
  const RunStats s = cbe().run(p);
  // FPD at 0 stalls all issue through cycle 6; FX2 at 7, result 9; FPD result 13.
  EXPECT_EQ(s.cycles, 13u);
  EXPECT_EQ(s.idle_cycles, 6u);  // cycles 1-6
  const RunStats s2 = cbe().run(Program{op(IClass::kFPD, 1, 8), op(IClass::kFX2, 2, 8),
                                        op(IClass::kFX2, 3, 8)});
  EXPECT_EQ(s2.cycles, 13u);  // FX2s at 7 and 8; FPD latency still dominates
  EXPECT_EQ(s2.idle_cycles, 6u);
}

TEST(Pipeline, PowerXCellFpdIsFullyPipelined) {
  Program p;
  for (int i = 0; i < 100; ++i) p.push_back(op(IClass::kFPD, 16 + (i % 64), 8, 8, 8));
  const RunStats s = pxc().run(p);
  EXPECT_EQ(s.cycles, 99u + 9u);  // one per cycle + final latency
}

// ---------------------------------------------------------------------------
// Fig. 4: latency per execution group
// ---------------------------------------------------------------------------

struct LatencyCase {
  IClass cls;
  double cbe_expected;
  double pxc_expected;
};

// gtest prints each case's raw bytes into the listed test name, padding
// after `cls` included.  A static table zero-fills that padding, so the
// names are the same on every build; temporaries passed to Values() would
// carry whatever was on the stack.
constexpr LatencyCase kLatencyCases[] = {
    {IClass::kBR, 4, 4},   {IClass::kFP6, 6, 6}, {IClass::kFP7, 7, 7},
    {IClass::kFPD, 13, 9},  // the Fig. 4 headline
    {IClass::kFX2, 2, 2},  {IClass::kFX3, 3, 3}, {IClass::kFXB, 4, 4},
    {IClass::kLS, 6, 6},   {IClass::kSHUF, 4, 4},
};

class LatencyFig4 : public ::testing::TestWithParam<LatencyCase> {};

TEST_P(LatencyFig4, MicrobenchmarkRecoversLatency) {
  const auto& c = GetParam();
  EXPECT_DOUBLE_EQ(measure_latency(cbe(), c.cls), c.cbe_expected);
  EXPECT_DOUBLE_EQ(measure_latency(pxc(), c.cls), c.pxc_expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllGroups, LatencyFig4, ::testing::ValuesIn(kLatencyCases),
    [](const auto& inf) {
      return std::string(kIClassNames[static_cast<int>(inf.param.cls)]);
    });

// ---------------------------------------------------------------------------
// Fig. 5: repetition distance per execution group
// ---------------------------------------------------------------------------

class RepetitionFig5 : public ::testing::TestWithParam<IClass> {};

TEST_P(RepetitionFig5, FullyPipelinedExceptCellBeFpd) {
  const IClass cls = GetParam();
  const double expected_cbe = cls == IClass::kFPD ? 7.0 : 1.0;
  EXPECT_DOUBLE_EQ(measure_repetition(cbe(), cls), expected_cbe);
  EXPECT_DOUBLE_EQ(measure_repetition(pxc(), cls), 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllGroups, RepetitionFig5,
                         ::testing::Values(IClass::kBR, IClass::kFP6, IClass::kFP7,
                                           IClass::kFPD, IClass::kFX2, IClass::kFX3,
                                           IClass::kFXB, IClass::kLS, IClass::kSHUF),
                         [](const auto& inf) {
                           return std::string(kIClassNames[static_cast<int>(inf.param)]);
                         });

TEST(Microbench, MeasurementsMatchSpecTables) {
  for (const auto& m : measure_all_groups(pxc())) {
    const GroupMeasurement e = expected_group(pxc().spec(), m.cls);
    EXPECT_DOUBLE_EQ(m.latency_cycles, e.latency_cycles);
    EXPECT_DOUBLE_EQ(m.repetition_cycles, e.repetition_cycles);
  }
}

// The microbenchmarks' N-long programs built out in full: a dependent
// chain over a 32-register rotation, or a stream of independent issues.
Program unrolled(IClass cls, int n, bool chain) {
  Program p;
  for (int i = 0; i < n; ++i)
    p.push_back(chain ? op(cls, (i + 1) % 32, i % 32) : op(cls, 64 + i % 32, 8));
  return p;
}

TEST(Microbench, RotationRunEqualsTheUnrolledProgram) {
  // measure_latency and measure_repetition run the 32-instruction rotation
  // N/32 times instead of building the N-long program: the same stream.
  for (const SpuPipeline* pipe : {&cbe(), &pxc()})
    for (int c = 0; c < kNumIClasses; ++c)
      for (const bool chain : {true, false}) {
        const auto cls = static_cast<IClass>(c);
        const Program rotation = unrolled(cls, 32, chain);
        for (const int n : {256, 512}) {
          SCOPED_TRACE(std::string(kIClassNames[c]) + (chain ? " chain " : " stream ") +
                       std::to_string(n));
          const RunStats want = pipe->run(unrolled(cls, n, chain));
          const RunStats got = pipe->run(rotation, n / 32);
          EXPECT_EQ(got.cycles, want.cycles);
          EXPECT_EQ(got.instructions, want.instructions);
          EXPECT_EQ(got.dual_issue_cycles, want.dual_issue_cycles);
          EXPECT_EQ(got.idle_cycles, want.idle_cycles);
        }
      }
}

TEST(Pipeline, SteadyStateSkipTimesAHugeRunExactly) {
  // The Cell BE FPD chain issues once per 13-cycle latency: 416 cycles per
  // 32-instruction iteration, 12 idle cycles between issues, no pairs.
  // Stepping 2^31 - 1 iterations would take minutes; the run reaches its
  // steady state in the first few and adds the rest.
  const int iterations = std::numeric_limits<int>::max();
  const std::uint64_t n = iterations;
  const RunStats s = cbe().run(unrolled(IClass::kFPD, 32, true), iterations);
  EXPECT_EQ(s.instructions, 32 * n);
  EXPECT_EQ(s.cycles, 416 * n);
  EXPECT_EQ(s.idle_cycles, 12 * (32 * n - 1));
  EXPECT_EQ(s.dual_issue_cycles, 0u);
}

// ---------------------------------------------------------------------------
// Peak flop rates (Section II.A / IV.A)
// ---------------------------------------------------------------------------

TEST(PeakRate, PowerXCellSpeDoublePrecision) {
  // 1 FPD/cycle x 4 flops x 3.2 GHz = 12.8 Gflop/s per SPE; x8 = 102.4.
  const FlopRate per_spe = fma_peak_rate(pxc(), IClass::kFPD);
  EXPECT_NEAR(per_spe.in_gflops() * 8, 102.4, 0.5);
}

TEST(PeakRate, CellBeSpeDoublePrecision) {
  // One FPD every 7 cycles: 8 SPEs reach only 14.6 Gflop/s.
  const FlopRate per_spe = fma_peak_rate(cbe(), IClass::kFPD);
  EXPECT_NEAR(per_spe.in_gflops() * 8, 14.6, 0.15);
}

TEST(PeakRate, DoublePrecisionRatioIsSeven) {
  const double ratio = fma_peak_rate(pxc(), IClass::kFPD) / fma_peak_rate(cbe(), IClass::kFPD);
  EXPECT_NEAR(ratio, 7.0, 0.05);
}

TEST(PeakRate, SinglePrecisionIsIdenticalAcrossVariants) {
  // VPIC saw no PowerXCell gain: SP was already fully pipelined (IV.A).
  const FlopRate a = fma_peak_rate(pxc(), IClass::kFP6);
  const FlopRate b = fma_peak_rate(cbe(), IClass::kFP6);
  EXPECT_NEAR(a / b, 1.0, 1e-9);
  EXPECT_NEAR(a.in_gflops() * 8, 204.8, 1.0);
}

// ---------------------------------------------------------------------------
// Streams TRIAD out of local store (Table III, SPE row)
// ---------------------------------------------------------------------------

TEST(Triad, LocalStoreBandwidthNearMeasured) {
  const Bandwidth bw = triad_local_store_bandwidth(pxc());
  EXPECT_NEAR(bw.gbps(), cal::kAnchorStreamsSpe.gbps(),
              cal::kAnchorStreamsSpe.gbps() * 0.10);
}

TEST(Triad, BandwidthBelowTheoreticalPeak) {
  const Bandwidth bw = triad_local_store_bandwidth(pxc());
  EXPECT_LT(bw.gbps(), cal::kSpeLocalStorePeakBw.gbps());
}

TEST(Triad, MoreUnrollHelpsUntilOddPipeBound) {
  const double u1 = triad_local_store_bandwidth(pxc(), 1).gbps();
  const double u2 = triad_local_store_bandwidth(pxc(), 2).gbps();
  const double u8 = triad_local_store_bandwidth(pxc(), 8).gbps();
  EXPECT_LT(u1, u2);
  EXPECT_LT(u2, u8);
  EXPECT_LT(u8, 51.2);
}

// ---------------------------------------------------------------------------
// Sweep3D inner-loop kernel (Section V.B)
// ---------------------------------------------------------------------------

TEST(SweepKernel, PowerXCellVsCellBeNearPaperFactor) {
  const double c_pxc = sweep_cell_cycles(pxc());
  const double c_cbe = sweep_cell_cycles(cbe());
  const double ratio = c_cbe / c_pxc;
  // Paper: "a factor of almost 2x" (1.9) for Sweep3D (Section IV.A / VI).
  EXPECT_NEAR(ratio, cal::kAnchorSweepPxcVsCbe, 0.25);
}

TEST(SweepKernel, OptimizedBeatsScalarSubstantially) {
  // Our SIMD+unrolled implementation vs. naive scalar code generation.
  const double opt = sweep_cell_cycles(pxc());
  const double scalar = sweep_cell_cycles_scalar(pxc());
  EXPECT_GT(scalar / opt, 2.0);
}

TEST(SweepKernel, ScalarRatioModelsPreviousImplementationGap) {
  // Previous (master/worker, non-SIMD) vs ours on the same Cell BE silicon
  // was 1.3/0.37 = 3.5x; the code-generation part of that gap should be in
  // the same regime.
  const double prev = sweep_cell_cycles_scalar(cbe());
  const double ours = sweep_cell_cycles(cbe());
  EXPECT_GT(prev / ours, 2.5);
  EXPECT_LT(prev / ours, 5.5);
}

// ---------------------------------------------------------------------------
// Local store and DMA
// ---------------------------------------------------------------------------

TEST(LocalStore, PaperBlockingFits) {
  // 5x5x400 per SPE with MK=20 -> 5x5x20 blocks, 6 angles (Section VI).
  EXPECT_TRUE(LocalStore::sweep_block_fits(5, 5, 400 / 20, 6));
  // The whole 5x5x400 subgrid does NOT fit: blocking is mandatory.
  EXPECT_FALSE(LocalStore::sweep_block_fits(5, 5, 400, 6));
}

TEST(LocalStore, MaxKBlockIsMonotoneInFootprint) {
  const int k_small = LocalStore::max_k_block(5, 5, 6);
  const int k_large = LocalStore::max_k_block(10, 10, 6);
  EXPECT_GT(k_small, 0);
  EXPECT_GT(k_small, k_large);
  EXPECT_GE(k_small, 20);  // the paper's MK=20 blocking must be feasible
}

TEST(Dma, TransferTimeScalesWithSize) {
  const DmaEngine dma;
  const Duration t16k = dma.transfer_time(DataSize::kib(16));
  const Duration t64k = dma.transfer_time(DataSize::kib(64));
  EXPECT_GT(t64k, t16k);
  // Large transfers approach the 25.6 GB/s memory interface.
  const Duration t1m = dma.transfer_time(DataSize::mib(1));
  const double gbps = static_cast<double>(DataSize::mib(1).b()) / t1m.sec() * 1e-9;
  EXPECT_GT(gbps, 20.0);
  EXPECT_LT(gbps, 25.6);
}

TEST(Dma, ContentionDividesBandwidth) {
  const DmaEngine dma;
  const Bandwidth one = dma.effective_bandwidth(1);
  const Bandwidth eight = dma.effective_bandwidth(8);
  EXPECT_NEAR(one.gbps() / eight.gbps(), 8.0, 1e-9);
}

TEST(Dma, ZeroByteCostsSetupOnly) {
  const DmaEngine dma;
  EXPECT_EQ(dma.transfer_time(DataSize::zero()).ns(), 200.0);
}

}  // namespace
}  // namespace rr::spu
