// Fig. 4 + Fig. 5 reproduction: per-execution-group instruction latency
// and repetition distance on the Cell BE vs the PowerXCell 8i, measured
// by the same microbenchmark method the paper used (dependent chains and
// independent back-to-back streams, here against the pipeline simulator).
#include <iostream>

#include "spu/kernels.hpp"
#include "spu/microbench.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  const spu::SpuPipeline cbe{spu::PipelineSpec::cell_be()};
  const spu::SpuPipeline pxc{spu::PipelineSpec::powerxcell_8i()};

  const auto m_cbe = spu::measure_all_groups(cbe);
  const auto m_pxc = spu::measure_all_groups(pxc);

  print_banner(std::cout, "Fig. 4: latency of each execution group (cycles)");
  Table lat({"group", "Cell BE", "PowerXCell 8i"});
  for (int i = 0; i < spu::kNumIClasses; ++i)
    lat.row()
        .add(std::string(spu::kIClassNames[i]))
        .add(m_cbe[i].latency_cycles, 0)
        .add(m_pxc[i].latency_cycles, 0);
  lat.print(std::cout);
  std::cout << "paper's headline: FPD drops from 13 to 9 cycles.\n";

  print_banner(std::cout, "Fig. 5: repetition distance of each group (cycles)");
  Table rep({"group", "Cell BE", "PowerXCell 8i"});
  for (int i = 0; i < spu::kNumIClasses; ++i)
    rep.row()
        .add(std::string(spu::kIClassNames[i]))
        .add(m_cbe[i].repetition_cycles, 0)
        .add(m_pxc[i].repetition_cycles, 0);
  rep.print(std::cout);
  std::cout << "paper's headline: FPD becomes fully pipelined (7 -> 1).\n";

  print_banner(std::cout, "Consequence: SPE double-precision peak");
  Table peak({"variant", "paper 8-SPE DP peak (Gflop/s)", "model (Gflop/s)"});
  peak.row().add("Cell BE").add("14.6").add(
      spu::fma_peak_rate(cbe, spu::IClass::kFPD).in_gflops() * 8, 1);
  peak.row().add("PowerXCell 8i").add("102.4").add(
      spu::fma_peak_rate(pxc, spu::IClass::kFPD).in_gflops() * 8, 1);
  peak.print(std::cout);
  return 0;
}
