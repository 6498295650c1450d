// Ablation: the analytic wavefront model vs the discrete-event
// simulation of the same iteration (real CML messages with tag matching,
// per-link PCIe/HCA contention).  At small rank counts the two agree
// closely; as ranks share PCIe links and HCAs, the DES runs slower than
// the closed form -- the same optimism the paper observed between its
// model ("best") and the measured system, attributed to flow control and
// multiple buffering (Section VI.A).
#include <iostream>

#include "topo/fat_tree.hpp"
#include "model/sim_validation.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  topo::TopologyParams tp;
  tp.cu_count = 2;
  const topo::FatTree topo = topo::FatTree::build(tp);
  const auto pxc = model::spe_compute(arch::CellVariant::kPowerXCell8i);
  const model::SweepWorkload w;  // 5x5x400, MK=20

  print_banner(std::cout, "Ablation: analytic model vs discrete-event simulation");
  Table t({"ranks (px x py)", "DES iteration (s)", "analytic model (s)",
           "DES/model", "transport legs"});
  struct Grid {
    int px, py;
  };
  for (const Grid g : {Grid{2, 1}, Grid{2, 2}, Grid{4, 2}, Grid{8, 4},
                       Grid{16, 4}, Grid{16, 8}}) {
    const auto des = model::simulate_iteration(w, g.px, g.py, pxc, topo);
    const model::CommMode mode = g.px * g.py <= 8
                                     ? model::CommMode::kIntraSocketEib
                                     : model::CommMode::kMeasuredEarly;
    const auto est = model::estimate_iteration(w, g.px, g.py, pxc, mode);
    t.row()
        .add(std::to_string(g.px) + " x " + std::to_string(g.py))
        .add(des.total.sec(), 4)
        .add(est.total.sec(), 4)
        .add(des.total.sec() / est.total.sec(), 2)
        .add(static_cast<std::int64_t>(des.messages));
  }
  t.print(std::cout);

  std::cout
      << "\nWithin one socket the closed form tracks the DES to a few\n"
         "percent.  Once 32 ranks per node funnel boundary exchanges\n"
         "through four PCIe links and one HCA, queueing pushes the DES\n"
         "above the model -- which is exactly where the paper's measured\n"
         "curve sat relative to its model projection (Fig. 13).\n";
  return 0;
}
