// Table IV reproduction: Sweep3D implementations on the Cell (50x50x50
// per SPE, MK=10, 6 angles).  The PowerXCell/Cell BE ratio and the gap to
// the previous master/worker implementation are model *outputs*: they
// come from running the optimized and scalar inner-loop kernels on the
// two SPU pipeline variants; only the single PowerXCell absolute was used
// for calibration (see DESIGN.md).
#include <iostream>

#include "arch/calibration.hpp"
#include "model/sweep_model.hpp"
#include "spu/kernels.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  namespace cal = rr::arch::cal;

  const model::TableIvResult r = model::table_iv();

  print_banner(std::cout, "Table IV: Sweep3D on the Cell (s/iteration)");
  Table t({"implementation", "paper CBE", "model CBE", "paper PXC8i",
           "model PXC8i"});
  t.row()
      .add("previous (master/worker)")
      .add(cal::kAnchorSweepPrevCbe, 2)
      .add(r.prev_cbe_s, 2)
      .add("N/A")
      .add("N/A");
  t.row()
      .add("ours (SPE-centric)")
      .add(cal::kAnchorSweepOursCbe, 2)
      .add(r.ours_cbe_s, 2)
      .add(cal::kAnchorSweepOursPxc, 2)
      .add(r.ours_pxc_s, 2);
  t.print(std::cout);

  print_banner(std::cout, "Derived factors");
  Table f({"factor", "paper", "model"});
  f.row().add("PowerXCell 8i vs Cell BE (Sweep3D)").add("~1.9x").add(
      r.ours_cbe_s / r.ours_pxc_s, 2);
  f.row().add("ours vs previous (same Cell BE)").add("3.5x").add(
      r.prev_cbe_s / r.ours_cbe_s, 2);

  // Where the 1.9x comes from: the same instruction stream on the two
  // pipeline variants.
  const spu::SpuPipeline pxc{spu::PipelineSpec::powerxcell_8i()};
  const spu::SpuPipeline cbe{spu::PipelineSpec::cell_be()};
  f.row().add("inner-loop cycle ratio (pipeline sim)").add("-").add(
      spu::sweep_cell_cycles(cbe) / spu::sweep_cell_cycles(pxc), 3);
  f.row().add("SPE DP peak ratio (Section IV.A)").add("7x").add(
      spu::fma_peak_rate(pxc, spu::IClass::kFPD) /
          spu::fma_peak_rate(cbe, spu::IClass::kFPD),
      2);
  f.print(std::cout);

  std::cout << "\nThe inner loop is latency- and odd-pipe-bound, not FPD\n"
               "throughput-bound, which is why applications see ~1.9x while\n"
               "the raw DP peak improves 7x (Section IV.A's observation for\n"
               "SPaSM and Milagro as well).\n";
  return 0;
}
