// Fig. 7 reproduction: intranode (PPE<->Opteron over DaCS/PCIe) and
// internode (Cell-Opteron-Opteron-Cell, all pairs active) bandwidth,
// unidirectional x2 and bidirectional sum, over message sizes 1 B - 1 MB.
#include <iostream>

#include "arch/calibration.hpp"
#include "comm/path.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  namespace cal = rr::arch::cal;

  const comm::PathModel intra = comm::ppe_opteron_intranode();
  const comm::PathModel inter = comm::cell_to_cell_allpairs();

  print_banner(std::cout, "Fig. 7: Cell-to-Cell bandwidth vs message size (MB/s)");
  Table t({"size (B)", "intra bidir", "intra uni x2", "inter bidir",
           "inter uni x2"});
  for (std::int64_t n = 1; n <= 1'048'576; n *= 4) {
    const DataSize d = DataSize::bytes(n);
    t.row()
        .add(n)
        .add(intra.bidir_bandwidth_sum(d).mbps(), 1)
        .add(intra.uni_bandwidth(d).mbps() * 2, 1)
        .add(inter.bidir_bandwidth_sum(d).mbps(), 1)
        .add(inter.uni_bandwidth(d).mbps() * 2, 1);
  }
  t.print(std::cout);

  print_banner(std::cout, "Large-message anchors (1 MB)");
  const DataSize mb = DataSize::bytes(1'000'000);
  Table a({"curve", "paper (MB/s)", "model (MB/s)"});
  a.row().add("intranode bidirectional").add(cal::kAnchorIntranodeBidir.mbps(), 0).add(
      intra.bidir_bandwidth_sum(mb).mbps(), 0);
  a.row().add("intranode unidirectional x2").add(cal::kAnchorIntranodeUniX2.mbps(), 0).add(
      intra.uni_bandwidth(mb).mbps() * 2, 0);
  a.row().add("internode bidirectional").add(cal::kAnchorInternodeBidir.mbps(), 0).add(
      inter.bidir_bandwidth_sum(mb).mbps(), 0);
  a.row().add("internode unidirectional x2").add(cal::kAnchorInternodeUniX2.mbps(), 0).add(
      inter.uni_bandwidth(mb).mbps() * 2, 0);
  a.print(std::cout);

  std::cout << "\nBidirectional efficiency: intranode "
            << format_double(100 * intra.bidir_bandwidth_sum(mb).mbps() /
                                 (2 * intra.uni_bandwidth(mb).mbps()),
                             0)
            << " % (paper 64%), internode "
            << format_double(100 * inter.bidir_bandwidth_sum(mb).mbps() /
                                 (2 * inter.uni_bandwidth(mb).mbps()),
                             0)
            << " % (paper 70%).\n";
  return 0;
}
