// Table I reproduction: distances (in crossbar hops) from node 0 of CU 1
// to every other node of the 3,060-node machine, via the deterministic
// destination-indexed routing over the explicit fabric.
#include <iostream>

#include "topo/fat_tree.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  const topo::FatTree t = topo::FatTree::roadrunner();
  const topo::NodeId src{0};

  // Classify destinations the way the paper's rows do.
  const topo::Attachment& a0 = t.attachment(src);
  int self = 0, same_xbar = 0, same_cu = 0;
  int cu2_12_same = 0, cu2_12_diff = 0, cu13_17_same = 0, cu13_17_diff = 0;
  std::int64_t hop_total = 0;
  auto hops_of = [&](int d) { return t.hop_count(src, topo::NodeId{d}); };

  struct Row {
    const char* label;
    int* count;
    int hops;
  };
  for (int d = 0; d < t.node_count(); ++d) {
    const topo::Attachment& att = t.attachment(topo::NodeId{d});
    const int h = hops_of(d);
    hop_total += h;
    if (d == src.v) ++self;
    else if (att.cu == a0.cu && att.lower_xbar == a0.lower_xbar) ++same_xbar;
    else if (att.cu == a0.cu) ++same_cu;
    else if (att.cu < 12 && att.lower_xbar == a0.lower_xbar) ++cu2_12_same;
    else if (att.cu < 12) ++cu2_12_diff;
    else if (att.lower_xbar == a0.lower_xbar) ++cu13_17_same;
    else ++cu13_17_diff;
  }

  print_banner(std::cout,
               "Table I: distances from node 0 (CU 1) in crossbar hops");
  Table table({"destination class", "paper count", "model count", "paper hops",
               "model hops"});
  auto row = [&](const char* label, int paper_n, int model_n, int paper_h,
                 int probe_dst) {
    table.row().add(label).add(paper_n).add(model_n).add(paper_h).add(
        probe_dst >= 0 ? hops_of(probe_dst) : 0);
  };
  row("self", 1, self, 0, 0);
  row("within same crossbar", 7, same_xbar, 1, 1);
  row("within same CU", 172, same_cu, 3, 100);
  row("CUs 2-12, same crossbar", 88, cu2_12_same, 3, 180);
  row("CUs 2-12, different crossbar", 1892, cu2_12_diff, 5, 180 + 100);
  row("CUs 13-17, same crossbar", 40, cu13_17_same, 5, 180 * 13);
  row("CUs 13-17, different crossbar", 860, cu13_17_diff, 7, 180 * 13 + 100);
  table.print(std::cout);

  const double avg = static_cast<double>(hop_total) / t.node_count();
  std::cout << "\naverage hops: paper 5.38, model " << format_double(avg, 2)
            << "  (total destinations: " << t.node_count() << ")\n";
  return 0;
}
