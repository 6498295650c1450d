// Table II reproduction: performance characteristics of Roadrunner at
// node, CU, and system level -- all derived from component specs -- plus
// the headline LINPACK and Green500 numbers of Sections I-II.
#include <iostream>

#include "core/roadrunner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  using arch::Precision;
  const core::RoadrunnerSystem rr = core::RoadrunnerSystem::full();
  const arch::SystemSpec& s = rr.spec();

  print_banner(std::cout, "Table II: performance characteristics of Roadrunner");
  Table t({"quantity", "paper", "model"});
  t.row().add("CU count").add("17").add(s.cu_count);
  t.row().add("node count").add("3,060").add(s.node_count());
  t.row().add("system peak DP (Pflop/s)").add("1.38").add(
      s.system_peak(Precision::kDouble).in_pflops(), 3);
  t.row().add("system peak SP (Pflop/s)").add("2.91").add(
      s.system_peak(Precision::kSingle).in_pflops(), 3);
  t.row().add("CU node count").add("180").add(s.nodes_per_cu);
  t.row().add("CU peak DP (Tflop/s)").add("80.9").add(
      s.cu_peak(Precision::kDouble).in_tflops(), 1);
  t.row().add("CU peak SP (Tflop/s)").add("171.1").add(
      s.cu_peak(Precision::kSingle).in_tflops(), 1);
  t.row().add("node Opteron peak DP (Gflop/s)").add("14.4").add(
      s.node.opteron_peak(Precision::kDouble).in_gflops(), 1);
  t.row().add("node Opteron peak SP (Gflop/s)").add("28.8").add(
      s.node.opteron_peak(Precision::kSingle).in_gflops(), 1);
  t.row().add("node Cell peak DP (Gflop/s)").add("435.2").add(
      s.node.cell_peak(Precision::kDouble).in_gflops(), 1);
  t.row().add("node Cell peak SP (Gflop/s)").add("921.6").add(
      s.node.cell_peak(Precision::kSingle).in_gflops(), 1);
  t.row().add("Opteron cores / node").add("4").add(s.node.opteron_cores());
  t.row().add("Cell processors / node").add("4 (4 PPE, 32 SPE)").add(
      std::to_string(s.node.cell_processors()) + " (" +
      std::to_string(s.node.cell_processors()) + " PPE, " +
      std::to_string(s.node.spe_count()) + " SPE)");
  t.print(std::cout);

  print_banner(std::cout, "Headline numbers (Sections I-II)");
  const auto lp = rr.linpack();
  const auto pw = rr.power();
  Table h({"quantity", "paper", "model"});
  h.row().add("LINPACK sustained (Pflop/s)").add("1.026").add(
      lp.sustained.in_pflops(), 3);
  h.row().add("LINPACK efficiency (%)").add("74.6").add(100 * lp.efficiency, 1);
  h.row().add("Cell share of peak (%)").add("~95").add(
      100 * s.cell_peak_fraction(Precision::kDouble), 1);
  h.row().add("Green500 (Mflops/W)").add("437").add(pw.linpack_mflops_per_watt, 0);
  h.row().add("Cell-only systems (Mflops/W)").add("488").add(
      pw.cell_only_mflops_per_watt, 0);
  h.row().add("Opteron-only peak (Tflop/s, ~Top500 #50)").add("44").add(
      s.node.opteron_peak(Precision::kDouble).in_tflops() * s.node_count(), 1);
  h.print(std::cout);
  return 0;
}
