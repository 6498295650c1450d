// Self-tests of the benchmark's own arithmetic.  Every run executes them
// before its workload; a failure makes the run incorrect.
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "des.hpp"
#include "model/sim_validation.hpp"
#include "topo/fat_tree.hpp"
#include "util/stats.hpp"

namespace rr::perfbench {

bool run_selftests(std::ostream& log) {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    log << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
    if (!ok) ++failures;
  };
  const auto near = [](double a, double b) { return std::abs(a - b) <= 1e-12 * (1.0 + std::abs(b)); };

  // The percentile rule: the highest of p50/p90/p99/p99.9 with >= 10
  // samples beyond it.
  expect(tail_percentile(19) == 0.0, "19 samples: no tail percentile");
  expect(tail_percentile(20) == 50.0, "20 samples: p50");
  expect(tail_percentile(99) == 50.0, "99 samples: p50 (p90 leaves 9)");
  expect(tail_percentile(100) == 90.0, "100 samples: p90");
  expect(tail_percentile(1000) == 99.0, "1000 samples: p99");
  expect(tail_percentile(10000) == 99.9, "10000 samples: p99.9");
  expect(near(median({4, 1, 3, 2}), 2.5), "median interpolates");
  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) ramp.push_back(i);
  const Timing t = summarize(ramp);
  expect(t.n == 100 && near(t.median, 50.5) && t.tail_p == 90.0 && near(t.tail, 90.1),
         "summarize(1..100): median 50.5, p90 90.1");

  // fail_frac accounting.
  Result r;
  r.op(true, "a");
  r.op(false, "b");
  r.check(false, "c");
  r.op(true, "d");
  expect(r.attempted == 3 && r.failed == 1 && !r.correct && r.problems.size() == 2 &&
             near(r.fail_frac(), 1.0 / 3.0),
         "3 operations, 1 failed, 1 loose check: fail_frac 1/3, incorrect");
  Result clean;
  clean.op(true, "a");
  expect(clean.correct && clean.fail_frac() == 0.0, "clean run: fail_frac 0");
  expect(Result{}.fail_frac() == 1.0, "nothing attempted counts as failed");

  // The paper-row error and the exact-row rule.
  expect(near(relative_error(2.35, 2.0), 0.175), "relative_error(2.35, 2.0) = 0.175");
  expect(near(relative_error(-0.9, -1.0), 0.1), "relative_error uses |paper|");
  expect(matches_to_digits(1.376, 1.38, 2), "1.376 states as 1.38");
  expect(!matches_to_digits(1.37, 1.38, 2), "1.37 does not state as 1.38");
  expect(matches_to_digits(172, 172, 0) && !matches_to_digits(171, 172, 0),
         "counts match exactly");

  // Closed-form message and leg counts against real DES grids on a 2-CU
  // tree: one Cell (2x1, 4x2), four Cells of one node (8x4), two nodes
  // (16x4, so InfiniBand legs appear too).  The replica must agree.
  topo::FatTreeParams params;
  params.cu_count = 2;
  const topo::FatTree tree = topo::FatTree::build(params);
  const model::SweepCompute spe = model::spe_compute(arch::CellVariant::kPowerXCell8i);
  const std::pair<int, int> grids[] = {{2, 1}, {4, 2}, {8, 4}, {16, 4}};
  for (const auto& [px, py] : grids) {
    DesShape s;
    s.px = px;
    s.py = py;
    s.w.kt = 40;
    const std::string grid = std::to_string(px) + "x" + std::to_string(py);
    const model::SimulatedIteration des = model::simulate_iteration(s.w, px, py, spe, tree);
    expect(des.messages == count_legs(s).total(),
           grid + ": legs " + std::to_string(des.messages) + " = rule " +
               std::to_string(count_legs(s).total()));
    const ReplicaStats rep = run_replica(s, spe, tree);
    expect(rep.sends == closed_form_msgs(s) && rep.legs == des.messages &&
               rep.total_ps == des.total.ps() && rep.done == rep.world_size,
           grid + ": replica sends " + std::to_string(rep.sends) + " = closed form " +
               std::to_string(closed_form_msgs(s)) + ", same legs and simulated time");
  }
  expect(count_legs(DesShape{16, 4, {5, 5, 40, 20, 6}}).ib > 0, "16x4 crosses nodes");

  // The two DES workloads' shapes.
  const DesShape deep = des_shape("des-deep");
  const DesShape wide = des_shape("des-wide");
  expect(closed_form_msgs(deep) == 640'000 && count_legs(deep).total() == 1'315'840,
         "des-deep: 640,000 messages, 1,315,840 legs");
  expect(closed_form_msgs(wide) == 520'192 && count_legs(wide).total() == 1'077'248,
         "des-wide: 520,192 messages, 1,077,248 legs");

  log << (failures == 0 ? "self-tests passed\n"
                        : std::to_string(failures) + " self-test(s) failed\n");
  return failures == 0;
}

}  // namespace rr::perfbench
