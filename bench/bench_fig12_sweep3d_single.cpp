// Fig. 12 reproduction: Sweep3D iteration time on a single core
// (5x5x400 subgrid) and a full socket (weak-scaled), for the dual-core
// 1.8 GHz Opteron, quad-core 2.0 GHz Opteron, quad-core 2.93 GHz
// Tigerton, and the PowerXCell 8i.
#include <iostream>

#include "model/sweep_model.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  const auto rows = model::figure12_rows();

  print_banner(std::cout, "Fig. 12: Sweep3D iteration time (5x5x400 per core/SPE)");
  Table t({"processor", "single core (ms)", "socket (ms)", "socket ranks",
           "socket Mcells/s"});
  for (const auto& r : rows)
    t.row()
        .add(r.processor)
        .add(r.single_core_ms, 2)
        .add(r.socket_ms, 2)
        .add(r.socket_ranks)
        .add(r.socket_cells_per_s * 1e-6, 2);
  t.print(std::cout);

  print_banner(std::cout, "Paper's stated relations");
  Table rel({"relation", "paper", "model"});
  rel.row().add("single SPE vs single Opteron 1.8 core").add("comparable").add(
      format_double(rows[1].single_core_ms / rows[0].single_core_ms, 2) + "x");
  rel.row().add("single SPE vs single Tigerton core").add("comparable").add(
      format_double(rows[3].single_core_ms / rows[0].single_core_ms, 2) + "x");
  rel.row().add("SPE socket vs quad Opteron socket (perf)").add("2x").add(
      format_double(rows[2].spe_socket_advantage, 2) + "x");
  rel.row().add("SPE socket vs quad Tigerton socket (perf)").add("2x").add(
      format_double(rows[3].spe_socket_advantage, 2) + "x");
  rel.row().add("SPE socket vs dual Opteron socket (perf)").add("almost 5x").add(
      format_double(rows[1].spe_socket_advantage, 2) + "x");
  rel.print(std::cout);

  std::cout << "\nSocket performance is cells solved per second: the sockets\n"
               "run different weak-scaled totals (8, 2, 4, 4 ranks), exactly\n"
               "as in the paper's comparison.\n";
  return 0;
}
