// Fig. 3 reproduction: processing-rate and memory-capacity breakdown of a
// Roadrunner compute node (triblade), derived from the component specs.
#include <iostream>

#include "arch/spec.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  using arch::Precision;
  const arch::TribladeSpec node = arch::make_triblade();
  const double total_gf = node.peak(Precision::kDouble).in_gflops();

  print_banner(std::cout, "Fig. 3a: peak processing rate (DP) of one node");
  Table flops({"component", "paper (Gflop/s)", "model (Gflop/s)", "share (%)"});
  auto frow = [&](const char* label, double paper, FlopRate f) {
    flops.row().add(label).add(paper, 1).add(f.in_gflops(), 1).add(
        100.0 * f.in_gflops() / total_gf, 1);
  };
  frow("SPEs (32)", 409.6, node.spe_peak(Precision::kDouble));
  frow("PPEs (4)", 25.6, node.ppe_peak(Precision::kDouble));
  frow("Opterons (4 cores)", 14.4, node.opteron_peak(Precision::kDouble));
  flops.row().add("total").add("449.6").add(total_gf, 1).add("100.0");
  flops.print(std::cout);

  print_banner(std::cout, "Fig. 3b: memory capacity of one node");
  Table mem({"component", "paper", "model"});
  auto gib = [](DataSize d) {
    return format_double(static_cast<double>(d.b()) / (1 << 30), 2) + " GiB";
  };
  auto mib = [](DataSize d) {
    return format_double(static_cast<double>(d.b()) / (1 << 20), 2) + " MiB";
  };
  mem.row().add("Cell off-chip").add("16 GB").add(gib(node.cell_memory()));
  mem.row().add("Opteron off-chip").add("16 GB").add(gib(node.opteron_memory()));
  mem.row().add("Cell on-chip (L1+L2+local store)").add("10.25 MB").add(
      mib(node.cell_on_chip()));
  mem.row().add("Opteron on-chip (L1+L2)").add("8.5 MB").add(
      mib(node.opteron_on_chip()));
  mem.print(std::cout);

  std::cout << "\nThe figure's point: ~91% of a node's DP flops come from the\n"
               "SPEs, while main memory splits evenly between the blades.\n";
  return 0;
}
