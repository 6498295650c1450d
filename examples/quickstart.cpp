// Quickstart: build the modeled Roadrunner and ask it the paper's headline
// questions.  Run:  ./quickstart [--cus=N]
#include <iostream>

#include "core/roadrunner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {"cus"});
  const int cus = cli.get_int("cus", 17, 1, 24);  // the design's limit

  const core::RoadrunnerSystem rr = core::RoadrunnerSystem::with_cu_count(cus);

  print_banner(std::cout, "Roadrunner quickstart (" + std::to_string(cus) + " CUs)");

  Table spec({"quantity", "value"});
  spec.row().add("compute nodes (triblades)").add(rr.node_count());
  spec.row().add("SPEs").add(rr.spe_count());
  spec.row().add("peak DP").add(format_double(rr.peak_dp().in_pflops(), 3) + " Pflop/s");
  spec.row().add("peak SP").add(
      format_double(rr.spec().system_peak(arch::Precision::kSingle).in_pflops(), 3) +
      " Pflop/s");
  spec.row().add("Cell share of peak").add(
      format_double(100 * rr.spec().cell_peak_fraction(arch::Precision::kDouble), 1) +
      " %");
  const auto lp = rr.linpack();
  spec.row().add("projected LINPACK").add(format_double(lp.sustained.in_pflops(), 3) +
                                          " Pflop/s");
  spec.row().add("LINPACK efficiency").add(format_double(100 * lp.efficiency, 1) + " %");
  const auto pw = rr.power();
  spec.row().add("system power").add(format_double(pw.system_mw, 2) + " MW");
  spec.row().add("Green500 efficiency").add(
      format_double(pw.linpack_mflops_per_watt, 0) + " Mflops/W");
  spec.print(std::cout);

  print_banner(std::cout, "Interconnect probes from node 0");
  Table net({"destination", "hops", "MPI 0-byte latency (us)"});
  const auto probe = [&](const char* label, int dst) {
    net.row().add(label).add(rr.hop_count({0}, {dst})).add(
        rr.mpi_latency({0}, {dst}).us(), 2);
  };
  probe("node 1 (same crossbar)", 1);
  probe("node 100 (same CU)", 100);
  if (rr.node_count() > 500) probe("node 500 (another CU)", 500);
  if (rr.node_count() > 2600) probe("node 2600 (far side)", 2600);
  net.print(std::cout);

  std::cout << "\nTip: run the bench_* binaries to regenerate every table and\n"
               "figure of the paper; see EXPERIMENTS.md for the comparison.\n";
  return 0;
}
