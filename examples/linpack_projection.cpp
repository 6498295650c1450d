// LINPACK two ways:
//   1. run the real blocked LU kernel on this host and verify the HPL
//      residual check passes;
//   2. project HPL onto the modeled Roadrunner, reproducing the headline
//      1.026 Pflop/s and the Green500 placement.
//
// Run:  ./linpack_projection [--n=512] [--nb=64]
#include <chrono>
#include <climits>
#include <iostream>

#include "core/roadrunner.hpp"
#include "model/linpack.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {"n", "nb"});
  const int n = cli.get_int("n", 512, 1, 46340);  // n * n must fit an int
  const int nb = cli.get_int("nb", 64, 1, INT_MAX);

  print_banner(std::cout, "Local LU kernel: n=" + std::to_string(n) +
                              ", block=" + std::to_string(nb));
  model::Matrix m;
  m.n = n;
  m.a.resize(static_cast<std::size_t>(n) * n);
  Rng rng(2008);
  for (auto& v : m.a) v = rng.uniform(-0.5, 0.5);
  for (int i = 0; i < n; ++i) m.at(i, i) += n;
  const model::Matrix original = m;
  std::vector<double> b(n, 1.0);

  const auto t0 = std::chrono::steady_clock::now();
  const auto pivots = model::lu_factor(m, nb);
  const auto t1 = std::chrono::steady_clock::now();
  const auto x = model::lu_solve(m, pivots, b);
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double gflops = model::lu_flops(n) / secs * 1e-9;
  const double resid = model::hpl_residual(original, x, b);

  Table local({"metric", "value"});
  local.row().add("factorization time").add(format_double(secs * 1e3, 1) + " ms");
  local.row().add("this host's rate").add(format_double(gflops, 2) + " Gflop/s");
  local.row().add("HPL residual").add(resid, 4);
  local.row().add("residual check (< 16)").add(resid < 16.0 ? "PASS" : "FAIL");
  local.print(std::cout);

  print_banner(std::cout, "Roadrunner projection");
  const core::RoadrunnerSystem rr = core::RoadrunnerSystem::full();
  const auto proj = rr.linpack();
  const auto power = rr.power();
  Table t({"metric", "paper", "model"});
  t.row().add("peak DP (Pflop/s)").add("1.38").add(proj.peak.in_pflops(), 3);
  t.row().add("sustained LINPACK (Pflop/s)").add("1.026").add(
      proj.sustained.in_pflops(), 3);
  t.row().add("efficiency (%)").add("74.6").add(100 * proj.efficiency, 1);
  t.row().add("Green500 (Mflops/W)").add("437").add(power.linpack_mflops_per_watt, 0);
  t.row().add("Cell-only systems (Mflops/W)").add("488").add(
      power.cell_only_mflops_per_watt, 0);
  t.print(std::cout);

  std::cout << "\nEquivalent machines needed at this host's measured rate: "
            << format_double(proj.sustained.in_flops() / (gflops * 1e9), 0) << "\n";
  return 0;
}
