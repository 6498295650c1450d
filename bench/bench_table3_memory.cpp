// Table III reproduction: Streams TRIAD bandwidth and memtime latency for
// Roadrunner's three processor types.  The Opteron and PPE rows come from
// the MLP-bound memory model; the SPE row comes from running the TRIAD
// kernel and a pointer-chase loop on the SPU pipeline simulator.  The
// memtime sweep below shows the level structure the benchmark exposes.
#include <iostream>

#include "arch/calibration.hpp"
#include "mem/memory_system.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  namespace cal = rr::arch::cal;

  const mem::MemoryModel opteron(mem::opteron_memory_system());
  const mem::MemoryModel ppe(mem::ppe_memory_system());

  print_banner(std::cout, "Table III: measured memory performance");
  Table t({"processor", "paper TRIAD (GB/s)", "model TRIAD (GB/s)",
           "paper latency (ns)", "model latency (ns)"});
  t.row()
      .add("Opteron")
      .add(cal::kAnchorStreamsOpteron.gbps(), 2)
      .add(opteron.streams_triad_reported().gbps(), 2)
      .add(cal::kAnchorMemLatOpteron.ns(), 1)
      .add(opteron.memtime_latency(DataSize::mib(64)).ns(), 1);
  t.row()
      .add("PowerXCell 8i (PPE)")
      .add(cal::kAnchorStreamsPpe.gbps(), 2)
      .add(ppe.streams_triad_reported().gbps(), 2)
      .add(cal::kAnchorMemLatPpe.ns(), 1)
      .add(ppe.memtime_latency(DataSize::mib(64)).ns(), 1);
  t.row()
      .add("PowerXCell 8i (SPE)")
      .add(cal::kAnchorStreamsSpe.gbps(), 2)
      .add(mem::spe_local_store_triad().gbps(), 2)
      .add(cal::kAnchorMemLatSpe.ns(), 1)
      .add(mem::spe_local_store_memtime().ns(), 1);
  t.print(std::cout);

  print_banner(std::cout, "memtime sweep (trace-driven cache simulation)");
  Table sweep({"footprint (KiB)", "Opteron (ns)", "PPE (ns)"});
  for (std::int64_t kib = 8; kib <= 16 * 1024; kib *= 4) {
    const DataSize fp = DataSize::kib(static_cast<double>(kib));
    sweep.row()
        .add(kib)
        .add(opteron.memtime_latency_trace(fp, 4000).ns(), 2)
        .add(ppe.memtime_latency_trace(fp, 4000).ns(), 2);
  }
  sweep.print(std::cout);

  std::cout << "\nNote the PPE row: 0.89 GB/s from a 25.6 GB/s interface -- the\n"
               "in-order PPE sustains ~one miss at a time, which is why the\n"
               "paper assigns it control duties only.\n";
  return 0;
}
