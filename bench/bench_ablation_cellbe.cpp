// Ablation: what if Roadrunner had been built from original Cell BE
// processors instead of the PowerXCell 8i?  Quantifies why IBM redesigned
// the FPD unit and memory controller (Section II): the machine would not
// have crossed the petaflop line in double precision, and Sweep3D would
// lose most of its acceleration.
#include <iostream>

#include "arch/spec.hpp"
#include "model/linpack.hpp"
#include "model/sweep_model.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  using arch::Precision;

  arch::SystemSpec pxc_sys = arch::make_roadrunner();
  arch::SystemSpec cbe_sys = pxc_sys;
  cbe_sys.node = arch::make_triblade(arch::CellVariant::kCellBe);

  print_banner(std::cout, "Ablation: Roadrunner built from Cell BE vs PowerXCell 8i");
  Table t({"quantity", "Cell BE machine", "PowerXCell 8i machine"});
  t.row()
      .add("system peak DP (Pflop/s)")
      .add(cbe_sys.system_peak(Precision::kDouble).in_pflops(), 3)
      .add(pxc_sys.system_peak(Precision::kDouble).in_pflops(), 3);
  t.row()
      .add("system peak SP (Pflop/s)")
      .add(cbe_sys.system_peak(Precision::kSingle).in_pflops(), 3)
      .add(pxc_sys.system_peak(Precision::kSingle).in_pflops(), 3);
  t.row()
      .add("projected LINPACK (Pflop/s)")
      .add(model::project_linpack(cbe_sys).sustained.in_pflops(), 3)
      .add(model::project_linpack(pxc_sys).sustained.in_pflops(), 3);
  t.row()
      .add("node memory per Cell blade (max)")
      .add("2 GB (Rambus XDR)")
      .add("32 GB (DDR2-800)");
  const auto cbe = model::spe_compute(arch::CellVariant::kCellBe);
  const auto pxc = model::spe_compute(arch::CellVariant::kPowerXCell8i);
  const model::SweepWorkload w;
  const auto [px, py] = model::choose_grid(32 * 3060);
  const double t_cbe =
      model::estimate_iteration(w, px, py, cbe, model::CommMode::kMeasuredEarly)
          .total.sec();
  const double t_pxc =
      model::estimate_iteration(w, px, py, pxc, model::CommMode::kMeasuredEarly)
          .total.sec();
  t.row().add("Sweep3D iteration at 3,060 nodes (s)").add(t_cbe, 3).add(t_pxc, 3);
  t.print(std::cout);

  std::cout << "\nDouble-precision peak drops "
            << format_double(pxc_sys.system_peak(Precision::kDouble) /
                                 cbe_sys.system_peak(Precision::kDouble),
                             1)
            << "x without the pipelined FPD unit: no petaflop, and the\n"
               "2 GB XDR limit would not hold the paper's weak-scaled\n"
               "problems.  Both redesigns were necessary, not incidental.\n";
  return 0;
}
