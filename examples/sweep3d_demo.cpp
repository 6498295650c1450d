// Sweep3D end-to-end demo:
//   1. solve a real Sn transport problem with the serial solver,
//   2. solve it again with the KBA thread-parallel solver and verify the
//      fluxes agree bitwise and particles balance,
//   3. project the iteration time of the paper's weak-scaled workload on
//      the modeled Roadrunner (the Fig. 13 experiment).
//
// Run:  ./sweep3d_demo [--n=16] [--px=2] [--py=2] [--mk=4]
#include <iostream>

#include "model/sweep_model.hpp"
#include "sweep/kba.hpp"
#include "sweep/solver.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {"n", "px", "py", "mk"});
  const int n = static_cast<int>(cli.get_int("n", 16));
  sweep::KbaConfig kba;
  kba.px = static_cast<int>(cli.get_int("px", 2));
  kba.py = static_cast<int>(cli.get_int("py", 2));
  kba.mk = static_cast<int>(cli.get_int("mk", 4));

  sweep::Problem p;
  p.nx = p.ny = p.nz = n;
  p.dx = p.dy = p.dz = 0.5;
  p.sigma_t = 1.0;
  p.sigma_s = 0.6;

  print_banner(std::cout, "Functional solve: " + std::to_string(n) + "^3, S6, DD");
  const sweep::SolveResult serial = sweep::solve(p, 1e-8, 300);
  const sweep::SolveResult parallel = sweep::solve_kba(p, kba, 1e-8, 300);

  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < p.cells(); ++c)
    if (serial.scalar_flux[c] != parallel.scalar_flux[c]) ++mismatches;

  Table res({"solver", "iterations", "converged", "leakage", "balance residual"});
  res.row()
      .add("serial")
      .add(serial.iterations)
      .add(serial.converged ? "yes" : "no")
      .add(serial.leakage, 6)
      .add(sweep::balance_residual(p, serial), 9);
  res.row()
      .add("KBA " + std::to_string(kba.px) + "x" + std::to_string(kba.py) +
           " (MK blocks: " + std::to_string(kba.mk) + ")")
      .add(parallel.iterations)
      .add(parallel.converged ? "yes" : "no")
      .add(parallel.leakage, 6)
      .add(sweep::balance_residual(p, parallel), 9);
  res.print(std::cout);
  std::cout << "\nflux mismatches serial vs KBA (bitwise): " << mismatches << " of "
            << p.cells() << " cells\n";
  std::cout << "center flux: " << serial.scalar_flux[p.idx(n / 2, n / 2, n / 2)]
            << "\n";

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
