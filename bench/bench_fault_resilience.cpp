// Extension (no paper figure): resilience at petascale.  The paper keeps
// 3,060 hybrid nodes alive for a ~2 h LINPACK run (Section VII) but never
// prices the failures a machine of 6,948 sockets takes for granted.  This
// harness derives what operations would have lived by: the component
// census and fleet MTBF, the Young/Daly defensive-checkpoint interval
// from the Panasas I/O model, and the expected completion time of
// interrupted HPL and Sweep3D runs -- cross-checked against a
// discrete-event replay with restart.  Everything is seeded, so every run
// of this binary prints bit-identical tables.  The 1 -> 3,060 node
// studies and the interval sweep run on the parallel sweep engine
// (src/sweep_engine) -- same seeds, same numbers, N-way faster.  Takes
// no flags or arguments.
#include <cmath>
#include <iostream>
#include <vector>

#include "topo/fat_tree.hpp"
#include "arch/spec.hpp"
#include "fault/checkpoint_policy.hpp"
#include "fault/failure_model.hpp"
#include "fault/resilience_study.hpp"
#include "io/io_model.hpp"
#include "model/sweep_model.hpp"
#include "sweep_engine/studies.hpp"
#include "topo/degraded.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

void add_study_rows(rr::Table& t,
                    const std::vector<rr::fault::ResiliencePoint>& points) {
  for (const auto& p : points) {
    t.row()
        .add(p.nodes)
        .add(p.fault_free_s / 3600.0, 2)
        .add(p.system_mtbf_h, 1)
        .add(p.checkpoint_s, 0)
        .add(p.interval_s / 60.0, 1)
        .add(p.simulated_s / 3600.0, 2)
        .add(100.0 * p.overhead_simulated, 1)
        .add(p.mean_failures, 2)
        .add(100.0 * p.efficiency, 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});
  const arch::SystemSpec system = arch::make_roadrunner();
  const topo::FatTree topo = topo::FatTree::roadrunner();
  const fault::StudyConfig cfg;  // defaults: 4 GiB/node state, seeded
  engine::SweepEngine eng;       // hardware-concurrency workers

  // ---- component census and fleet MTBF ------------------------------------
  print_banner(std::cout, "Failure budget: component census at 3,060 nodes");
  const fault::ComponentCounts counts = fault::census(topo);
  const double mtbf_h = fault::system_mtbf_h(counts, cfg.reliability);
  {
    struct Row {
      const char* name;
      int count;
      double mtbf_h;
    };
    const Row rows[] = {
        {"triblade node", counts.nodes, cfg.reliability.node_mtbf_h},
        {"IB cable", counts.links, cfg.reliability.link_mtbf_h},
        {"CU crossbar", counts.crossbars, cfg.reliability.crossbar_mtbf_h},
        {"inter-CU switch", counts.switches, cfg.reliability.switch_mtbf_h},
    };
    const double total_rate = 1.0 / mtbf_h;
    Table t({"component", "count", "MTBF each (y)", "fleet share (%)"});
    for (const Row& r : rows) {
      const double rate = static_cast<double>(r.count) / r.mtbf_h;
      t.row()
          .add(r.name)
          .add(r.count)
          .add(r.mtbf_h / 8760.0, 0)
          .add(100.0 * rate / total_rate, 1);
    }
    t.print(std::cout);
    std::cout << "\nsystem MTBF: " << format_double(mtbf_h, 1)
              << " h (one interrupt every "
              << format_double(mtbf_h / 24.0, 2) << " days)\n";
  }

  // ---- Young/Daly at full scale, validated against the DES ----------------
  print_banner(std::cout,
               "Young/Daly defensive checkpointing, full-machine LINPACK");
  const double hpl_s = fault::hpl_fault_free_s(system, topo.node_count());
  const fault::ResiliencePoint full =
      fault::study_point(system, topo, topo.node_count(), hpl_s, cfg);
  const double mtbf_s = full.system_mtbf_h * 3600.0;
  {
    Table t({"quantity", "value"});
    t.row().add("fault-free HPL run").add(
        format_double(hpl_s / 3600.0, 2) + " h");
    t.row().add("checkpoint write C (4 GiB/node)").add(
        format_double(full.checkpoint_s, 0) + " s");
    t.row().add("system MTBF M").add(format_double(mtbf_s / 3600.0, 1) + " h");
    t.row().add("Young interval sqrt(2CM)").add(
        format_double(fault::young_interval_s(full.checkpoint_s, mtbf_s) / 60.0,
                      1) +
        " min");
    t.row().add("Daly interval (used)").add(
        format_double(full.interval_s / 60.0, 1) + " min");
    t.row().add("expected makespan, analytic").add(
        format_double(full.analytic_s / 3600.0, 3) + " h");
    t.row().add("expected makespan, DES mean").add(
        format_double(full.simulated_s / 3600.0, 3) + " h");
    t.row().add("mean interrupts per run").add(
        format_double(full.mean_failures, 2));
    t.row().add("analytic vs DES error").add(
        format_double(100.0 * full.model_error(), 2) + " %");
    t.print(std::cout);
  }
  const bool agrees = full.model_error() < 0.10;
  std::cout << "\nDES replay within 10% of the Young/Daly closed form: "
            << (agrees ? "yes" : "NO") << "\n";

  // ---- interrupted HPL walk, 1 -> 3,060 nodes -----------------------------
  print_banner(std::cout, "Interrupted LINPACK walk (memory-scaled problem)");
  const std::vector<int> node_counts{1, 64, 256, 1024, 2048, 3060};
  Table hpl({"nodes", "fault-free (h)", "MTBF (h)", "C (s)", "tau (min)",
             "expected (h)", "overhead (%)", "interrupts", "efficiency (%)"});
  add_study_rows(hpl, engine::parallel_hpl_study(eng, system, topo,
                                                 node_counts, cfg));
  hpl.print(std::cout);

  // ---- interrupted timed Sweep3D run --------------------------------------
  // Enough wavefront iterations that the full-machine run takes a few
  // hours -- long enough for the failure budget to matter.
  const int sweep_iters = static_cast<int>(
      4.0 * 3600.0 / model::scale_point(topo.node_count()).cell_measured_s);
  print_banner(std::cout, "Interrupted Sweep3D, " +
                              std::to_string(sweep_iters) + " iterations");
  Table sweep({"nodes", "fault-free (h)", "MTBF (h)", "C (s)", "tau (min)",
               "expected (h)", "overhead (%)", "interrupts", "efficiency (%)"});
  add_study_rows(sweep, engine::parallel_sweep_study(eng, system, topo,
                                                     node_counts, sweep_iters,
                                                     cfg));
  sweep.print(std::cout);

  // ---- checkpoint-interval sensitivity at full scale ----------------------
  print_banner(std::cout,
               "Checkpoint-interval sweep, full-machine LINPACK");
  Table iv({"interval / optimal", "interval (min)", "analytic (h)",
            "DES mean (h)", "overhead (%)"});
  for (const auto& p : engine::parallel_interval_sweep(
           eng, system, topo, topo.node_count(), hpl_s,
           {0.25, 0.5, 1.0, 2.0, 4.0}, cfg)) {
    iv.row()
        .add(p.relative_to_optimal, 2)
        .add(p.interval_s / 60.0, 1)
        .add(p.analytic_s / 3600.0, 3)
        .add(p.simulated_s / 3600.0, 3)
        .add(100.0 * (p.simulated_s / hpl_s - 1.0), 1);
  }
  iv.print(std::cout);

  // ---- degraded routing under single faults -------------------------------
  print_banner(std::cout, "Degraded routing audit (single-fault sweeps)");
  topo::DegradedTopology fabric(topo);
  Table audit({"failed component", "nodes lost", "pairs", "unreachable",
               "max extra hops", "loop-free"});
  for (int sw = 0; sw < topo.params().inter_cu_switches; ++sw) {
    fabric.reset();
    fabric.fail_inter_cu_switch(sw);
    const topo::RouteAudit a = audit_routes(fabric);
    audit.row()
        .add("inter-CU switch " + std::to_string(sw))
        .add(topo.node_count() - fabric.alive_node_count())
        .add(a.pairs_checked)
        .add(a.unreachable)
        .add(a.max_extra_hops)
        .add(a.clean() ? "yes" : "NO");
  }
  for (int id = 0; id < topo.crossbar_count(); id += 61) {
    fabric.reset();
    fabric.fail_crossbar(id);
    const topo::RouteAudit a = audit_routes(fabric, 401, 149);
    const auto& xb = topo.crossbar(id);
    const char* level = "";
    switch (xb.kind) {
      case topo::XbarKind::kCuLower: level = "lower"; break;
      case topo::XbarKind::kCuUpper: level = "upper"; break;
      case topo::XbarKind::kInterCuL1: level = "L1"; break;
      case topo::XbarKind::kInterCuMid: level = "mid"; break;
      case topo::XbarKind::kInterCuL3: level = "L3"; break;
    }
    const std::string where =
        xb.cu >= 0 ? "CU " + std::to_string(xb.cu)
                   : "switch " + std::to_string(xb.sw);
    const std::string name = std::string(level) + " crossbar " +
                             std::to_string(id) + " (" + where + ")";
    audit.row()
        .add(name)
        .add(topo.node_count() - fabric.alive_node_count())
        .add(a.pairs_checked)
        .add(a.unreachable)
        .add(a.max_extra_hops)
        .add(a.clean() ? "yes" : "NO");
  }
  audit.print(std::cout);

  std::cout
      << "\nWhy it matters: at 3,060 nodes the fleet interrupts a ~2 h\n"
         "LINPACK run every few attempts.  With the Panasas-backed Daly\n"
         "interval the expected completion stays within a few percent of\n"
         "fault-free, and the fat tree routes around any single switch or\n"
         "crossbar loss without losing connectivity.\n";
  return agrees ? 0 : 1;
}
