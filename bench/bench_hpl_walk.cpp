// Extension: a step-by-step walk of the HPL algorithm over the modeled
// machine, deriving the headline 1.026 Pflop/s (74.6%) from the blocked
// algorithm itself -- panel factorization on the Opteron columns, panel
// broadcast over InfiniBand, trailing DGEMM on the Cells (at the
// SPU-pipeline-derived kernel rate) with the Opterons and PPEs computing
// concurrently, and lookahead hiding the panels (Sections I and III).
#include <iostream>

#include "arch/spec.hpp"
#include "model/hpl_sim.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  const arch::SystemSpec system = arch::make_roadrunner();

  print_banner(std::cout, "HPL walk: sustained rate vs problem size");
  Table t({"N", "sustained (Pflop/s)", "efficiency (%)", "run time (min)",
           "exposed non-DGEMM (min)"});
  for (const std::int64_t n :
       {250'000LL, 500'000LL, 1'000'000LL, 2'300'000LL, 4'000'000LL}) {
    model::HplSimParams p;
    p.n = n;
    const auto r = model::simulate_hpl(system, p);
    t.row()
        .add(n)
        .add(r.sustained.in_pflops(), 3)
        .add(100 * r.efficiency, 1)
        .add(r.total.sec() / 60.0, 1)
        .add(r.exposed_non_dgemm.sec() / 60.0, 2);
  }
  t.print(std::cout);

  model::HplSimParams base;
  const auto r = model::simulate_hpl(system, base);
  model::HplSimParams no_la = base;
  no_la.lookahead = false;
  const auto r_nola = model::simulate_hpl(system, no_la);

  print_banner(std::cout, "At the Roadrunner problem size (N = 2.3M)");
  Table a({"quantity", "paper", "model"});
  a.row().add("sustained (Pflop/s)").add("1.026").add(r.sustained.in_pflops(), 3);
  a.row().add("efficiency (%)").add("74.6").add(100 * r.efficiency, 1);
  a.row().add("run time").add("~2 h").add(
      format_double(r.total.sec() / 3600.0, 2) + " h");
  a.row().add("without lookahead (Pflop/s)").add("-").add(
      r_nola.sustained.in_pflops(), 3);
  a.print(std::cout);

  std::cout << "\nThe efficiency is now *derived*: SPE DGEMM kernel rate from\n"
               "the pipeline simulator (82.8% of peak), a 9% PCIe staging\n"
               "discount, the Opterons/PPEs computing concurrently (Section\n"
               "III), and panels/broadcasts hidden by lookahead.  Small N\n"
               "exposes the panel tail -- why petaflop runs use huge N.\n";
  return 0;
}
