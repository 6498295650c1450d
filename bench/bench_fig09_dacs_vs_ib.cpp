// Fig. 9 reproduction: DaCS-over-PCIe vs MPI-over-InfiniBand bandwidth
// and their ratio.  Both transfers cross an 8x PCIe bus, and the test is
// "slightly biased in favor of DaCS" (the IB number includes the network
// crossing), yet InfiniBand wins everywhere below ~1 MB -- the early DaCS
// stack's bounce-buffer copies are the gap the paper expects to close.
#include <iostream>

#include "comm/channel.hpp"
#include "comm/fabric.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  const comm::ChannelModel dacs{comm::dacs_pcie()};
  const comm::ChannelModel ib{comm::with_hops(comm::mpi_infiniband_default_params(), 3)};

  print_banner(std::cout, "Fig. 9: InfiniBand vs DaCS PCIe bandwidth");
  Table t({"size (B)", "DaCS intra-node (MB/s)", "MPI/IB inter-node (MB/s)",
           "relative (IB / DaCS)"});
  for (std::int64_t n = 1; n <= 1'000'000; n *= 10) {
    const DataSize d = DataSize::bytes(n);
    const double bw_dacs = dacs.uni_bandwidth(d).mbps();
    const double bw_ib = ib.uni_bandwidth(d).mbps();
    t.row().add(n).add(bw_dacs, 1).add(bw_ib, 1).add(bw_ib / bw_dacs, 2);
  }
  t.print(std::cout);

  std::cout
      << "\npaper's observations reproduced:\n"
         "  * in the 2-20 KB range DaCS achieves less than half of IB;\n"
         "  * the ratio approaches 1 for large messages;\n"
         "  * \"this performance should improve as the DaCS software\n"
         "    matures\" -- rerun with comm::pcie_raw() for the mature stack.\n";
  return 0;
}
