// Sweep3D end-to-end demo:
//   1. solve a real Sn transport problem with the serial solver,
//   2. sweep its converged source once more as the paper ran it -- KBA
//      ranks on SPEs exchanging CML messages on the simulated machine --
//      and verify the fluxes match the serial sweep bitwise,
//   3. project the iteration time of the paper's weak-scaled workload on
//      the modeled Roadrunner (the Fig. 13 experiment).
//
// Run:  ./sweep3d_demo [--n=16] [--px=2] [--py=2] [--mk=4]
// --px and --py are the KBA rank grid, --mk the K planes per block (the
// paper's MK); each must divide --n, or the demo exits 2 before solving.
#include <climits>
#include <iostream>
#include <utility>

#include "arch/mapping.hpp"
#include "model/sweep_model.hpp"
#include "sweep/cml_sweep.hpp"
#include "sweep/solver.hpp"
#include "topo/fat_tree.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {"n", "px", "py", "mk"});
  const topo::FatTree topo = topo::FatTree::roadrunner();
  const int n = cli.get_int("n", 16, 1, INT_MAX);
  // Every rank is one SPE of the machine.
  const int spes = topo.node_count() * arch::kSpeCentric.ranks_per_node();
  sweep::KbaConfig kba;
  kba.px = cli.get_int("px", 2, 1, spes);
  kba.py = cli.get_int("py", 2, 1, spes / kba.px);
  kba.mk = cli.get_int("mk", 4, 1, INT_MAX);
  // sweep_once_cml requires the grid and the blocks to divide the
  // problem: name the conflicting flags before the serial solve.
  using Flag = std::pair<const char*, int>;
  bool divides = true;
  for (const auto& [flag, value] : {Flag{"px", kba.px}, Flag{"py", kba.py}, Flag{"mk", kba.mk}}) {
    if (n % value == 0) continue;
    std::cerr << cli.program() << ": --" << flag << "=" << value
              << ": does not divide --n=" << n << "\n";
    divides = false;
  }
  if (!divides) return CliParser::kUsageExitCode;

  sweep::Problem p;
  p.nx = p.ny = p.nz = n;
  p.dx = p.dy = p.dz = 0.5;
  p.sigma_t = 1.0;
  p.sigma_s = 0.6;

  print_banner(std::cout, "Functional solve: " + std::to_string(n) + "^3, S6, DD");
  const sweep::SolveResult serial = sweep::solve(p, 1e-8, 300);
  Table res({"solver", "iterations", "converged", "leakage", "balance residual"});
  res.row()
      .add("serial")
      .add(serial.iterations)
      .add(serial.converged ? "yes" : "no")
      .add(serial.leakage, 6)
      .add(sweep::balance_residual(p, serial), 9);
  res.print(std::cout);
  std::cout << "center flux: " << serial.scalar_flux[p.idx(n / 2, n / 2, n / 2)]
            << "\n";

  // One more sweep of the converged source, serially and over CML.
  std::vector<double> emission(p.cells());
  for (std::size_t c = 0; c < p.cells(); ++c)
    emission[c] = p.source_at(c) + p.sigma_s * serial.scalar_flux[c];
  const sweep::SweepResult reference = sweep::sweep_once(p, emission);
  sim::Simulator simulator;
  cml::CmlConfig config;
  config.nodes = arch::kSpeCentric.nodes_for(kba.ranks());
  cml::CmlWorld world(simulator, topo, config);
  const sweep::CmlSweepResult over_cml = sweep::sweep_once_cml(
      p, emission, kba, world,
      model::spe_compute(arch::CellVariant::kPowerXCell8i).per_cell_angle);

  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < p.cells(); ++c)
    if (reference.scalar_flux[c] != over_cml.sweep.scalar_flux[c]) ++mismatches;

  print_banner(std::cout, "One sweep of the converged source over CML");
  Table sw({"sweep", "ranks", "leakage", "fixups", "legs",
            "simulated time (ms)"});
  sw.row()
      .add("serial")
      .add(1)
      .add(reference.leakage, 6)
      .add(static_cast<std::int64_t>(reference.fixups))
      .add(0)
      .add("-");
  sw.row()
      .add("KBA " + std::to_string(kba.px) + "x" + std::to_string(kba.py) +
           " (MK " + std::to_string(kba.mk) + " planes per block)")
      .add(over_cml.ranks)
      .add(over_cml.sweep.leakage, 6)
      .add(static_cast<std::int64_t>(over_cml.sweep.fixups))
      .add(static_cast<std::int64_t>(over_cml.messages))
      .add(over_cml.simulated_time.ms(), 3);
  sw.print(std::cout);
  std::cout << "\nflux mismatches serial vs CML (bitwise): " << mismatches
            << " of " << p.cells() << " cells\n";

  print_banner(std::cout, "Roadrunner projection (paper workload, 5x5x400/SPE)");
  Table proj({"nodes", "Opteron-only (s)", "Cell measured (s)", "Cell best (s)",
              "speedup measured", "speedup best"});
  for (const int nodes : {1, 16, 256, 1024, 3060}) {
    const model::ScalePoint pt = model::scale_point(nodes);
    proj.row()
        .add(nodes)
        .add(pt.opteron_s, 3)
        .add(pt.cell_measured_s, 3)
        .add(pt.cell_best_s, 3)
        .add(pt.improvement_measured(), 2)
        .add(pt.improvement_best(), 2);
  }
  proj.print(std::cout);

  const model::TableIvResult t4 = model::table_iv();
  std::cout << "\nSingle-socket (Table IV conditions): previous CBE "
            << format_double(t4.prev_cbe_s, 2) << " s, ours CBE "
            << format_double(t4.ours_cbe_s, 2) << " s, ours PowerXCell 8i "
            << format_double(t4.ours_pxc_s, 2) << " s\n";
  return 0;
}
