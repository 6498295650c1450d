// Living with failures at petascale: a walk through the fault subsystem
// (src/fault).  Scripts a morning of faults against the full fabric,
// shows the up*/down* router steering around a dead inter-CU switch,
// derives the Young/Daly defensive-checkpoint interval from the Panasas
// I/O model, and replays one interrupted LINPACK run on the simulator,
// restart by restart.
//
// Run:  ./resilience_demo [--seed=6] [--state-gib=4]
#include <iostream>
#include <vector>

#include "topo/fat_tree.hpp"
#include "arch/spec.hpp"
#include "fault/checkpoint_policy.hpp"
#include "fault/failure_model.hpp"
#include "fault/injector.hpp"
#include "fault/resilience_study.hpp"
#include "io/io_model.hpp"
#include "sim/interrupt.hpp"
#include "sim/simulator.hpp"
#include "topo/degraded.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {"seed", "state-gib"});
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 6));
  const double state_gib = static_cast<double>(cli.get_int("state-gib", 4));

  const arch::SystemSpec system = arch::make_roadrunner();
  const topo::FatTree topo = topo::FatTree::roadrunner();

  // --- a scripted morning of faults --------------------------------------
  print_banner(std::cout, "Scripted fault scenario on the DES clock");
  const auto cables = fault::cable_list(topo);
  const std::vector<fault::FailureEvent> script =
      fault::Scenario{}
          .fail_node(Duration::seconds(3600), 1042)
          .fail_inter_cu_switch(Duration::seconds(7200), 3)
          .fail_crossbar(Duration::seconds(10800), topo.cu_lower_id(8, 5))
          .build();

  topo::DegradedTopology fabric(topo);
  sim::Simulator sim;
  fault::FaultInjector injector(sim, script);
  injector.arm([&](const fault::FailureEvent& ev) {
    fault::apply_to_fabric(fabric, ev, cables);
    std::cout << "  t=" << format_double(sim.now().sec() / 3600.0, 1) << " h  "
              << fault::component_name(ev.component) << " " << ev.index
              << " fails; " << fabric.alive_node_count() << "/"
              << topo.node_count() << " nodes alive\n";
  });
  sim.run();

  // --- routing around the dead switch -------------------------------------
  print_banner(std::cout, "Degraded up*/down* routing");
  const topo::NodeId src{0}, dst{2500};  // CU 0 -> CU 13, crosses the fabric
  const auto healthy = topo.route(src, dst);
  const auto degraded = fabric.route(src, dst);
  std::cout << "  node 0 -> node 2500, healthy fabric:  " << healthy.size()
            << " crossbar hops\n";
  if (degraded) {
    std::cout << "  same pair, degraded fabric:           " << degraded->size()
              << " crossbar hops (switch 3 dead)\n";
  }
  const topo::RouteAudit audit = audit_routes(fabric);
  std::cout << "  full audit: " << audit.pairs_checked << " pairs, "
            << audit.unreachable << " unreachable, max +"
            << audit.max_extra_hops << " hops, "
            << (audit.clean() ? "loop-free" : "LOOPS") << "\n";

  // --- the checkpoint interval the machine should run at ------------------
  print_banner(std::cout, "Young/Daly defensive checkpointing");
  const fault::ComponentCounts counts = fault::census(topo);
  const fault::ReliabilityParams rel;
  const double mtbf_h = fault::system_mtbf_h(counts, rel);
  const io::IoSubsystem io(system);
  const double c_s = io.checkpoint_cost(DataSize::gib(state_gib)).sec();
  const double tau_s = fault::daly_interval_s(c_s, mtbf_h * 3600.0);
  Table t({"quantity", "value"});
  t.row().add("system MTBF").add(format_double(mtbf_h, 1) + " h");
  t.row().add("checkpoint write (" + format_double(state_gib, 0) + " GiB/node)")
      .add(format_double(c_s, 0) + " s");
  t.row().add("Daly interval").add(format_double(tau_s / 60.0, 1) + " min");
  t.print(std::cout);

  // --- one interrupted LINPACK run, blow by blow ---------------------------
  print_banner(std::cout, "One interrupted full-machine LINPACK run");
  const double work_s = fault::hpl_fault_free_s(system, topo.node_count());
  const sim::RestartPlan plan{Duration::seconds(work_s),
                              Duration::seconds(tau_s), Duration::seconds(c_s),
                              Duration::seconds(420)};
  const std::vector<Duration> failures = fault::generate_system_schedule(
      mtbf_h, Duration::seconds(4.0 * work_s), seed);
  std::cout << "  fault-free run: " << format_double(work_s / 3600.0, 2)
            << " h; failures drawn at:";
  for (const Duration f : failures)
    std::cout << " " << format_double(f.sec() / 3600.0, 2) << "h";
  std::cout << "\n";

  const sim::RestartStats stats = fault::run_interrupted(plan, failures);
  Table r({"outcome", "value"});
  r.row().add("makespan").add(format_double(stats.makespan.sec() / 3600.0, 2) +
                              " h");
  r.row().add("interrupts taken").add(stats.failures);
  r.row().add("checkpoints written").add(stats.checkpoints);
  r.row().add("work lost to rollbacks").add(
      format_double(stats.lost_work.sec() / 60.0, 1) + " min");
  r.row().add("time in checkpoint writes").add(
      format_double(stats.checkpoint_time.sec() / 60.0, 1) + " min");
  r.row().add("time rebooting").add(
      format_double(stats.restart_time.sec() / 60.0, 1) + " min");
  r.print(std::cout);

  std::cout << "\nTry --seed=N for a different failure draw, or --state-gib=32\n"
               "to price full-memory checkpoints instead.\n";
  return 0;
}
