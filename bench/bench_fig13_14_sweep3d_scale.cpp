// Fig. 13 + Fig. 14 reproduction: Sweep3D at scale on 1 - 3,060 nodes
// (5x5x400 per SPE, weak scaling) -- the non-accelerated Opteron runs,
// the accelerated runs on the early software stack ("Measured"), and the
// peak-PCIe projection ("best"); plus the acceleration factors.  The 13
// node counts run as one parallel batch on the sweep engine with the SPU
// rate tables memoized (bit-identical to the serial series).
#include <iostream>

#include "model/sweep_model.hpp"
#include "sweep_engine/studies.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  engine::SweepEngine eng;
  const std::vector<model::ScalePoint> series =
      engine::parallel_scale_series(eng, model::paper_node_counts());

  print_banner(std::cout, "Fig. 13: Sweep3D iteration time at scale (s)");
  Table t({"nodes", "Opteron only", "Cell (measured)", "Cell (best)"});
  for (const auto& pt : series)
    t.row()
        .add(pt.nodes)
        .add(pt.opteron_s, 3)
        .add(pt.cell_measured_s, 3)
        .add(pt.cell_best_s, 3);
  t.print(std::cout);

  print_banner(std::cout, "Fig. 14: performance improvement factor (Cell vs Opteron)");
  Table f({"nodes", "improvement (measured)", "improvement (best)"});
  for (const auto& pt : series)
    f.row().add(pt.nodes).add(pt.improvement_measured(), 2).add(
        pt.improvement_best(), 2);
  f.print(std::cout);

  const auto& last = series.back();
  print_banner(std::cout, "Paper's stated anchors at full scale (3,060 nodes)");
  Table a({"quantity", "paper", "model"});
  a.row().add("Opteron-only iteration (s)").add("~0.7").add(last.opteron_s, 2);
  a.row().add("measured improvement").add("~2x").add(last.improvement_measured(), 2);
  a.row().add("best-case improvement").add("up to 4x").add(last.improvement_best(), 2);
  a.row().add("measured vs best gap").add("almost 2x").add(
      last.cell_measured_s / last.cell_best_s, 2);
  a.row().add("small-scale best advantage").add("high (conclusions: ~10x)").add(
      series.front().improvement_best(), 2);
  a.print(std::cout);

  std::cout << "\n\"We expect that some of this performance improvement will\n"
               "be realized before Roadrunner becomes a production machine in\n"
               "late 2008.\" (Section VI.A)\n";
  return 0;
}
