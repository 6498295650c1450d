// Fig. 6 reproduction: breakdown of the latency of a zero-byte message
// from a Cell to a Cell in a different node (local SPE<->PPE legs, DaCS
// over PCIe, MPI over InfiniBand).
#include <iostream>

#include "arch/calibration.hpp"
#include "comm/path.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  namespace cal = rr::arch::cal;
  const comm::PathModel path = comm::cell_to_cell_internode();

  print_banner(std::cout, "Fig. 6: zero-byte Cell-to-Cell latency breakdown");
  Table t({"leg", "paper (us)", "model (us)"});
  const double paper_legs[] = {0.12, 3.19, 2.16, 3.19, 0.12};
  const auto breakdown = path.latency_breakdown();
  double model_total = 0.0;
  for (std::size_t i = 0; i < breakdown.size(); ++i) {
    t.row().add(breakdown[i].first).add(paper_legs[i], 2).add(
        breakdown[i].second.us(), 2);
    model_total += breakdown[i].second.us();
  }
  t.row().add("TOTAL").add(cal::kAnchorCellToCellLatency.us(), 2).add(model_total, 2);
  t.print(std::cout);

  double dacs_share = 0.0;
  for (const auto& [name, lat] : breakdown)
    if (name.find("DaCS") != std::string::npos) dacs_share += lat.us();
  std::cout << "\nDaCS/PCIe share of the total: "
            << format_double(100.0 * dacs_share / model_total, 1)
            << " %  (the paper's point: \"the major communication cost resides\n"
               "in the communication between the Cell and the Opteron\")\n"
            << "\n(The MPI leg models the 2.5 us same-crossbar latency of\n"
               "Fig. 10; the paper's 2.16 us was derived by subtraction, so\n"
               "the model's total runs ~4% high -- see EXPERIMENTS.md.)\n";
  return 0;
}
