// Explore the Roadrunner interconnect: print the deterministic route
// between two nodes, the hop histogram from a source, and the KBA
// wavefront schedule semantics of Fig. 11.
//
// Run:  ./topology_explorer [--src=0] [--dst=2600] [--cus=17]
#include <iostream>

#include "comm/fabric.hpp"
#include "sweep/schedule.hpp"
#include "topo/fat_tree.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

const char* kind_name(rr::topo::XbarKind k) {
  using rr::topo::XbarKind;
  switch (k) {
    case XbarKind::kCuLower: return "CU lower";
    case XbarKind::kCuUpper: return "CU upper";
    case XbarKind::kInterCuL1: return "inter-CU L1";
    case XbarKind::kInterCuMid: return "inter-CU mid";
    case XbarKind::kInterCuL3: return "inter-CU L3";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {"cus", "src", "dst"});
  const int cus = cli.get_int("cus", 17, 1, 24);  // the design's limit

  topo::FatTreeParams params;
  params.cu_count = cus;
  const topo::FatTree t = topo::FatTree::build(params);
  const comm::FabricModel fabric(t);

  const int last = t.node_count() - 1;
  const int src = cli.get_int("src", 0, 0, last);
  const int dst = cli.get_int("dst", std::min(2600, last), 0, last);

  print_banner(std::cout, "Route node " + std::to_string(src) + " -> node " +
                              std::to_string(dst));
  const auto path = t.route(topo::NodeId{src}, topo::NodeId{dst});
  Table route({"hop", "crossbar kind", "CU", "switch", "index"});
  int hop = 1;
  for (const int xbar : path) {
    const topo::Crossbar& x = t.crossbar(xbar);
    route.row()
        .add(hop++)
        .add(kind_name(x.kind))
        .add(x.cu >= 0 ? std::to_string(x.cu + 1) : "-")
        .add(x.sw >= 0 ? std::to_string(x.sw) : "-")
        .add(x.index);
  }
  route.print(std::cout);
  std::cout << "hops: " << path.size() << ", zero-byte MPI latency: "
            << format_double(
                   fabric.zero_byte_latency(topo::NodeId{src}, topo::NodeId{dst}).us(),
                   2)
            << " us\n";

  print_banner(std::cout, "Hop histogram from node " + std::to_string(src) +
                              " (Table I)");
  const auto hist = t.hop_histogram(topo::NodeId{src});
  Table ht({"hop count", "destinations"});
  for (std::size_t h = 0; h < hist.size(); ++h)
    if (hist[h] > 0) ht.row().add(h).add(hist[h]);
  ht.print(std::cout);
  std::cout << "average: " << format_double(t.average_hops(topo::NodeId{src}), 2)
            << " hops\n";

  print_banner(std::cout, "Wavefront schedule (Fig. 11 semantics, 4x4 grid)");
  for (int step = 0; step < 4; ++step) {
    std::cout << "step " << step + 1 << ": ";
    for (const auto& [i, j] : sweep::active_cells_2d(4, 4, step))
      std::cout << "(" << i << "," << j << ") ";
    std::cout << '\n';
  }
  return 0;
}
