// Section IV.A / VI reproduction: application speedup on the
// PowerXCell 8i vs the Cell BE.  Each application's factor is *derived*
// by running a representative inner-loop instruction mix on both pipeline
// variants -- only the FPD group's timing differs between them, so the
// spread (1.0x for SP codes up to ~2x for DP wavefronts) is entirely a
// consequence of how much exposed double-precision work each mix has.
#include <iostream>

#include "model/apps.hpp"
#include "spu/pipeline.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  const spu::SpuPipeline pxc{spu::PipelineSpec::powerxcell_8i()};
  const spu::SpuPipeline cbe{spu::PipelineSpec::cell_be()};

  print_banner(std::cout,
               "Section IV.A: application speedup, PowerXCell 8i vs Cell BE");
  Table t({"application", "paper", "model", "CBE cycles/iter", "PXC cycles/iter"});
  for (const auto& k : model::all_app_kernels()) {
    const double c_cbe = cbe.steady_cycles_per_iteration(k.inner_loop);
    const double c_pxc = pxc.steady_cycles_per_iteration(k.inner_loop);
    t.row()
        .add(k.name)
        .add(format_double(k.paper_speedup, 1) + "x")
        .add(format_double(c_cbe / c_pxc, 2) + "x")
        .add(c_cbe, 0)
        .add(c_pxc, 0);
  }
  t.print(std::cout);

  std::cout
      << "\nWhy the spread: the PowerXCell 8i changed only the FPD group\n"
         "(latency 13->9, fully pipelined).  VPIC is single precision, so\n"
         "nothing changes; SPaSM/Milagro dilute their DP work with gathers\n"
         "and branches (~1.5x); Sweep3D's interleaved DP chains gain the\n"
         "most (~1.9x) while still far from the raw 7x peak ratio.\n";
  return 0;
}
