// Fig. 8 reproduction: internode Opteron-to-Opteron unidirectional MPI
// bandwidth by core pair -- cores 1/3 sit next to the InfiniBand HCA,
// cores 0/2 pay an extra HyperTransport crossing, and the mixed pair
// lands in between.
#include <iostream>

#include "arch/calibration.hpp"
#include "comm/path.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  namespace cal = rr::arch::cal;

  const comm::PathModel near = comm::opteron_mpi_internode(true, true);
  const comm::PathModel far = comm::opteron_mpi_internode(false, false);
  const comm::PathModel mixed = comm::opteron_mpi_internode(false, true);

  print_banner(std::cout,
               "Fig. 8: internode unidirectional bandwidth by core pair (MB/s)");
  Table t({"size (B)", "cores 1 or 3", "cores 0 or 2", "core 0 to core 1"});
  for (std::int64_t n = 1; n <= 10'000'000; n *= 10) {
    const DataSize d = DataSize::bytes(n);
    t.row()
        .add(n)
        .add(near.uni_bandwidth(d).mbps(), 1)
        .add(far.uni_bandwidth(d).mbps(), 1)
        .add(mixed.uni_bandwidth(d).mbps(), 1);
  }
  t.print(std::cout);

  const DataSize big = DataSize::mib(8);
  print_banner(std::cout, "Plateau anchors");
  Table a({"pair", "paper (MB/s)", "model (MB/s)"});
  a.row().add("cores 1 and 3 (near HCA)").add(cal::kAnchorIbCores13.mbps(), 0).add(
      near.uni_bandwidth(big).mbps(), 0);
  a.row().add("cores 0 and 2 (extra HT hop)").add(cal::kAnchorIbCores02.mbps(), 0).add(
      far.uni_bandwidth(big).mbps(), 0);
  a.print(std::cout);
  std::cout << "\n\"Cores 1 and 3 (and their memory) are closer to the HCA\n"
               "than cores 0 and 2\" (Section IV.C).\n";
  return 0;
}
