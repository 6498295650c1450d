#include <gtest/gtest.h>

#include "arch/calibration.hpp"
#include "arch/mapping.hpp"
#include "arch/power.hpp"
#include "arch/spec.hpp"

namespace rr::arch {
namespace {

namespace cal = rr::arch::cal;

// ---------------------------------------------------------------------------
// Processor-level peaks (Section II.A)
// ---------------------------------------------------------------------------

TEST(ProcessorSpec, Opteron2210Peaks) {
  const ProcessorSpec p = make_opteron_2210();
  EXPECT_NEAR(p.peak(Precision::kDouble).in_gflops(), 7.2, 1e-9);
  EXPECT_NEAR(p.peak(Precision::kSingle).in_gflops(), 14.4, 1e-9);
  EXPECT_EQ(p.core_count(), 2);
}

TEST(ProcessorSpec, PowerXCell8iPeaks) {
  const ProcessorSpec p = make_cell(CellVariant::kPowerXCell8i);
  // 102.4 (SPEs) + 6.4 (PPE) = 108.8 DP Gflop/s.
  EXPECT_NEAR(p.peak(Precision::kDouble).in_gflops(), 108.8, 1e-9);
  EXPECT_EQ(p.core_count(), 9);
}

TEST(ProcessorSpec, CellBeDoublePrecisionIsCrippled) {
  const ProcessorSpec be = make_cell(CellVariant::kCellBe);
  // 14.6 (SPEs, FPD not pipelined) + 6.4 (PPE) = 21.0 DP Gflop/s.
  EXPECT_NEAR(be.peak(Precision::kDouble).in_gflops(), 21.0, 0.05);
  // SP peak: 204.8 (SPEs) + PPE = 217.6+ Gflop/s ("217.6 from nine cores").
  EXPECT_NEAR(be.peak(Precision::kSingle).in_gflops(), 230.4, 1e-6);
}

TEST(ProcessorSpec, PowerXCellIs7xCellBeOnDoublePrecisionSpes) {
  const ProcessorSpec pxc = make_cell(CellVariant::kPowerXCell8i);
  const ProcessorSpec be = make_cell(CellVariant::kCellBe);
  auto spe_peak = [](const ProcessorSpec& p) {
    for (const auto& g : p.core_groups)
      if (g.name == "SPE") return g.peak(Precision::kDouble);
    return FlopRate::flops(0);
  };
  EXPECT_NEAR(spe_peak(pxc) / spe_peak(be), 7.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Node-level roll-ups (Table II, Fig. 3)
// ---------------------------------------------------------------------------

TEST(Triblade, PeaksMatchTable2) {
  const TribladeSpec node = make_triblade();
  EXPECT_NEAR(node.opteron_peak(Precision::kDouble).in_gflops(), 14.4, 1e-9);
  EXPECT_NEAR(node.opteron_peak(Precision::kSingle).in_gflops(), 28.8, 1e-9);
  EXPECT_NEAR(node.cell_peak(Precision::kDouble).in_gflops(), 435.2, 1e-9);
  EXPECT_NEAR(node.cell_peak(Precision::kSingle).in_gflops(), 921.6, 1e-9);
}

TEST(Triblade, Figure3FlopsBreakdown) {
  const TribladeSpec node = make_triblade();
  EXPECT_NEAR(node.spe_peak(Precision::kDouble).in_gflops(), 409.6, 1e-9);
  EXPECT_NEAR(node.ppe_peak(Precision::kDouble).in_gflops(), 25.6, 1e-9);
  EXPECT_NEAR(node.opteron_peak(Precision::kDouble).in_gflops(), 14.4, 1e-9);
}

TEST(Triblade, Figure3MemoryBreakdown) {
  const TribladeSpec node = make_triblade();
  EXPECT_DOUBLE_EQ(node.cell_memory().b() / double(1 << 30), 16.0);
  EXPECT_DOUBLE_EQ(node.opteron_memory().b() / double(1 << 30), 16.0);
  // On-chip: Cells 10.25 MB, Opterons 8.5 MB.
  EXPECT_NEAR(static_cast<double>(node.cell_on_chip().b()) / (1 << 20), 10.25, 1e-9);
  EXPECT_NEAR(static_cast<double>(node.opteron_on_chip().b()) / (1 << 20), 8.5, 1e-9);
}

TEST(Triblade, CoreCounts) {
  const TribladeSpec node = make_triblade();
  EXPECT_EQ(node.opteron_cores(), 4);
  EXPECT_EQ(node.cell_processors(), 4);
  EXPECT_EQ(node.spe_count(), 32);
}

// ---------------------------------------------------------------------------
// Rank mapping (Sections II.A and III)
// ---------------------------------------------------------------------------

TEST(Mapping, PresetsMatchTheTriblade) {
  const TribladeSpec node = make_triblade();
  EXPECT_EQ(kSpeCentric.sockets_per_node, node.cell_processors());
  EXPECT_EQ(kSpeCentric.ranks_per_node(), node.spe_count());
  EXPECT_EQ(kHostOnly.sockets_per_node,
            static_cast<int>(node.opteron_blade.sockets.size()));
  EXPECT_EQ(kHostOnly.ranks_per_node(), node.opteron_cores());
}

TEST(Mapping, RanksFillSocketsThenNodesRowMajor) {
  for (int r = 0; r < 3 * 32; ++r) {
    EXPECT_EQ(kSpeCentric.node_of(r), r / 32) << r;
    EXPECT_EQ(kSpeCentric.socket_of(r), r / 8 % 4) << r;
  }
  for (int r = 0; r < 3 * 4; ++r) {
    EXPECT_EQ(kHostOnly.node_of(r), r / 4) << r;
    EXPECT_EQ(kHostOnly.socket_of(r), r / 2 % 2) << r;
  }
}

TEST(Mapping, NodesForRoundsUpToWholeNodes) {
  EXPECT_EQ(kSpeCentric.nodes_for(1), 1);
  EXPECT_EQ(kSpeCentric.nodes_for(32), 1);
  EXPECT_EQ(kSpeCentric.nodes_for(33), 2);
  EXPECT_EQ(kSpeCentric.nodes_for(97920), 3060);
  EXPECT_EQ(kHostOnly.nodes_for(1), 1);
  EXPECT_EQ(kHostOnly.nodes_for(32), 8);
  EXPECT_EQ(kHostOnly.nodes_for(33), 9);
  EXPECT_EQ(kHostOnly.nodes_for(97920), 24480);
}

// ---------------------------------------------------------------------------
// System-level roll-ups (Table II)
// ---------------------------------------------------------------------------

TEST(System, CuPeaksMatchTable2) {
  const SystemSpec s = make_roadrunner();
  EXPECT_NEAR(s.cu_peak(Precision::kDouble).in_tflops(), 80.9, 0.05);
  EXPECT_NEAR(s.cu_peak(Precision::kSingle).in_tflops(), 171.1, 0.05);
}

TEST(System, SystemPeaksMatchTable2) {
  const SystemSpec s = make_roadrunner();
  EXPECT_EQ(s.node_count(), 3060);
  EXPECT_EQ(s.spe_count(), 97920);
  EXPECT_NEAR(s.system_peak(Precision::kDouble).in_pflops(), 1.38, 0.005);
  EXPECT_NEAR(s.system_peak(Precision::kSingle).in_pflops(), 2.91, 0.005);
}

TEST(System, CellFractionOfPeakIsAbout95Percent) {
  const SystemSpec s = make_roadrunner();
  const double frac = s.cell_peak_fraction(Precision::kDouble);
  EXPECT_GT(frac, 0.94);
  EXPECT_LT(frac, 0.98);
}

// ---------------------------------------------------------------------------
// Power / Green500 (Section II)
// ---------------------------------------------------------------------------

TEST(Power, LinpackEfficiencyNear437MflopsPerWatt) {
  const SystemSpec s = make_roadrunner();
  const PowerReport r = estimate_power(s, cal::kAnchorLinpack);
  EXPECT_NEAR(r.linpack_mflops_per_watt, cal::kAnchorGreen500MflopsPerWatt,
              cal::kAnchorGreen500MflopsPerWatt * 0.05);
}

TEST(Power, CellOnlySystemIsMoreEfficient) {
  const SystemSpec s = make_roadrunner();
  const PowerReport r = estimate_power(s, cal::kAnchorLinpack);
  EXPECT_GT(r.cell_only_mflops_per_watt, r.linpack_mflops_per_watt);
  EXPECT_NEAR(r.cell_only_mflops_per_watt, cal::kAnchorCellOnlyMflopsPerWatt,
              cal::kAnchorCellOnlyMflopsPerWatt * 0.08);
}

TEST(Power, SystemPowerIsAFewMegawatts) {
  const SystemSpec s = make_roadrunner();
  const PowerReport r = estimate_power(s, cal::kAnchorLinpack);
  EXPECT_GT(r.system_mw, 1.5);
  EXPECT_LT(r.system_mw, 3.5);
}

// ---------------------------------------------------------------------------
// Comparison processors for Fig. 12
// ---------------------------------------------------------------------------

TEST(ProcessorSpec, ComparisonSocketsAreConfigured) {
  EXPECT_EQ(make_opteron_quad_2000().core_count(), 4);
  EXPECT_EQ(make_tigerton_quad_2930().core_count(), 4);
  EXPECT_NEAR(make_tigerton_quad_2930().core_groups[0].clock.in_ghz(), 2.93, 1e-9);
}

}  // namespace
}  // namespace rr::arch
