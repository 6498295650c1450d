// The three usage models of Section III on kernels of varying arithmetic
// intensity: when does pushing work to the Cells pay off, and why the
// SPE-centric model wins once it does.
//
// Run:  ./hybrid_offload [--mb=64]
#include <iostream>

#include "core/hybrid.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {"mb"});
  const DataSize data = DataSize::mib(static_cast<double>(cli.get_int("mb", 64)));

  const core::RoadrunnerSystem rr = core::RoadrunnerSystem::with_cu_count(1);
  const core::HybridRuntime runtime(rr);

  const core::KernelProfile kernels[] = {
      {"boundary exchange pack (0.25 flop/B)", 0.25, 0.5, 0.35,
       Duration::microseconds(20)},
      {"stencil update (2 flop/B)", 2.0, 0.5, 0.35, Duration::microseconds(20)},
      {"particle push (8 flop/B)", 8.0, 0.5, 0.35, Duration::microseconds(20)},
      {"dense linear algebra (50 flop/B)", 50.0, 0.5, 0.35,
       Duration::microseconds(20)},
  };

  print_banner(std::cout, "One node, " + std::to_string(data.b() / (1 << 20)) +
                              " MiB working set, early DaCS/PCIe stack");
  Table t({"kernel", "host-only (ms)", "accelerator (ms)", "SPE-centric (ms)",
           "best mode", "breakeven (MiB)"});
  for (const auto& k : kernels) {
    const auto host = runtime.run(core::UsageMode::kHostOnly, k, data);
    const auto acc = runtime.run(core::UsageMode::kAccelerator, k, data);
    const auto spe = runtime.run(core::UsageMode::kSpeCentric, k, data);
    const char* best = "host-only";
    double best_t = host.total.ms();
    if (acc.total.ms() < best_t) { best = "accelerator"; best_t = acc.total.ms(); }
    if (spe.total.ms() < best_t) { best = "SPE-centric"; }
    const auto breakeven = runtime.accelerator_breakeven(k);
    t.row()
        .add(k.name)
        .add(host.total.ms(), 2)
        .add(acc.total.ms(), 2)
        .add(spe.total.ms(), 2)
        .add(best)
        .add(breakeven >= DataSize::gib(15)
                 ? std::string("never")
                 : format_double(static_cast<double>(breakeven.b()) / (1 << 20), 2));
  }
  t.print(std::cout);

  std::cout
      << "\nReading: low-intensity kernels lose more to the PCIe round trip\n"
         "than the SPEs give back -- the paper's locality lesson.  The\n"
         "SPE-centric model keeps data in Cell memory, so once a kernel\n"
         "belongs on the Cell at all, it is the fastest way to run it.\n";
  return 0;
}
