#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "topo/fat_tree.hpp"
#include "arch/spec.hpp"
#include "fault/checkpoint_policy.hpp"
#include "fault/failure_model.hpp"
#include "fault/injector.hpp"
#include "fault/resilience_study.hpp"
#include "fault/taxonomy.hpp"
#include "io/io_model.hpp"
#include "sim/interrupt.hpp"
#include "sweep_engine/retry.hpp"
#include "topo/degraded.hpp"
#include "util/cli.hpp"

namespace rr::fault {
namespace {

const topo::FatTree& full_topo() {
  static const topo::FatTree t = topo::FatTree::roadrunner();
  return t;
}

// ---------------------------------------------------------------------------
// Failure schedules
// ---------------------------------------------------------------------------

TEST(Census, FullMachineComponentCounts) {
  const ComponentCounts c = census(full_topo());
  EXPECT_EQ(c.nodes, 3060);
  EXPECT_EQ(c.crossbars, 17 * 36);  // CU-level only
  EXPECT_EQ(c.switches, 8);
  // 17 CUs x (24x12 intra-CU + 24x4 uplinks) + 8 switches x 2x12x12.
  EXPECT_EQ(c.links, 17 * (24 * 12 + 24 * 4) + 8 * 2 * 12 * 12);
}

TEST(Census, LinkCountIsTheCableListLength) {
  const auto check = [](const topo::FatTree& t, const std::string& what) {
    EXPECT_EQ(static_cast<std::size_t>(census(t).links), cable_list(t).size())
        << what;
  };
  check(full_topo(), "roadrunner");
  topo::FatTreeParams one_cu;
  one_cu.cu_count = 1;
  check(topo::FatTree::build(one_cu), "one-CU fat tree");
}

TEST(Census, PartitionLinksScaleTheCableList) {
  // The campaign's partition sizes: each pro-rates the full machine's
  // cables by its share of the nodes, rounding up.
  const topo::FatTree& t = full_topo();
  const double cables = static_cast<double>(cable_list(t).size());
  for (const int nodes : {256, 512, 768, 1020, 1536, 2040, 2304, 2610, 3060}) {
    const double share = static_cast<double>(nodes) / t.node_count();
    const ComponentCounts c = census_for_nodes(t, nodes);
    EXPECT_EQ(c.nodes, nodes);
    EXPECT_EQ(c.links, static_cast<int>(std::ceil(cables * share))) << nodes;
  }
  EXPECT_EQ(census_for_nodes(t, t.node_count()).links,
            static_cast<int>(cables));
}

TEST(Census, CuLevelCrossbarsOccupyTheLowIds) {
  // apply_to_fabric maps kCrossbar indices straight to crossbar ids; that
  // only works because the id layout puts all 36*17 CU crossbars first.
  const topo::FatTree& t = full_topo();
  const int cu_level = census(t).crossbars;
  for (int id : {0, 1, cu_level - 1}) {
    const auto kind = t.crossbar(id).kind;
    EXPECT_TRUE(kind == topo::XbarKind::kCuLower ||
                kind == topo::XbarKind::kCuUpper);
  }
  EXPECT_EQ(t.crossbar(cu_level).kind, topo::XbarKind::kInterCuL1);
}

TEST(FailureSchedule, SystemScheduleMatchesAggregateRate) {
  const auto events =
      generate_system_schedule(2.0, Duration::seconds(2000 * 3600.0), 11);
  const double mean_h = 2000.0 / static_cast<double>(events.size());
  EXPECT_NEAR(mean_h, 2.0, 0.2);
}

TEST(SystemMtbf, HarmonicAggregation) {
  ComponentCounts c;
  c.nodes = 100;
  ReliabilityParams p;
  p.node_mtbf_h = 1000.0;
  // Only nodes present: 100 components at 1000 h => 10 h fleet MTBF.
  EXPECT_NEAR(system_mtbf_h(c, p), 10.0, 1e-12);
  c.switches = 10;
  p.switch_mtbf_h = 100.0;
  // Add 10 switches at 100 h: rate 0.1 + 0.1 => 5 h.
  EXPECT_NEAR(system_mtbf_h(c, p), 5.0, 1e-12);
}

TEST(Scenario, BuildsSortedScript) {
  Scenario s;
  s.fail_inter_cu_switch(Duration::seconds(30), 3)
      .fail_node(Duration::seconds(10), 1234)
      .fail_crossbar(Duration::seconds(20), 17);
  const auto events = s.build();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].component, Component::kNode);
  EXPECT_EQ(events[1].component, Component::kCrossbar);
  EXPECT_EQ(events[2].component, Component::kInterCuSwitch);
}

// ---------------------------------------------------------------------------
// Young/Daly checkpoint policy
// ---------------------------------------------------------------------------

TEST(CheckpointPolicy, YoungInterval) {
  EXPECT_NEAR(young_interval_s(200.0, 40000.0), std::sqrt(2 * 200.0 * 40000.0),
              1e-9);
}

TEST(CheckpointPolicy, DalyRefinesYoung) {
  const double c = 200.0, m = 40000.0;
  const double young = young_interval_s(c, m);
  const double daly = daly_interval_s(c, m);
  // Daly's correction is small for C << M and below Young's value.
  EXPECT_LT(daly, young);
  EXPECT_GT(daly, 0.5 * young);
}

TEST(CheckpointPolicy, OptimalIntervalMinimizesExpectedMakespan) {
  const double w = 10000.0, c = 100.0, r = 300.0, m = 5000.0;
  const double tau = daly_interval_s(c, m);
  const double at_opt = expected_makespan_s(w, tau, c, r, m);
  for (const double factor : {0.25, 0.5, 2.0, 4.0}) {
    EXPECT_LE(at_opt, expected_makespan_s(w, tau * factor, c, r, m))
        << "factor " << factor;
  }
}

TEST(CheckpointPolicy, NoFailureLimitIsPureCheckpointOverhead) {
  // M -> infinity: T -> W (1 + C/tau).
  const double t = expected_makespan_s(1000.0, 100.0, 10.0, 60.0, 1e12);
  EXPECT_NEAR(t, 1000.0 * (1.0 + 10.0 / 100.0), 1e-3);
}

// ---------------------------------------------------------------------------
// Interruptible process on the DES
// ---------------------------------------------------------------------------

TEST(InterruptibleProcess, FaultFreeRunPaysOneCheckpointPerSegment) {
  sim::Simulator sim;
  const sim::RestartPlan plan{Duration::seconds(100), Duration::seconds(30),
                              Duration::seconds(5), Duration::seconds(10)};
  sim::InterruptibleProcess proc(sim, plan);
  proc.start();
  sim.run();
  ASSERT_TRUE(proc.done());
  // Segments 30+30+30+10, each +5 checkpoint.
  EXPECT_EQ(proc.stats().makespan.ps(), Duration::seconds(120).ps());
  EXPECT_EQ(proc.stats().checkpoints, 4);
  EXPECT_EQ(proc.stats().failures, 0);
}

TEST(InterruptibleProcess, MidSegmentFaultRollsBackToLastCheckpoint) {
  sim::Simulator sim;
  const sim::RestartPlan plan{Duration::seconds(100), Duration::seconds(30),
                              Duration::seconds(5), Duration::seconds(10)};
  sim::InterruptibleProcess proc(sim, plan);
  proc.start();
  sim.schedule_at(TimePoint::origin() + Duration::seconds(50),
                  [&proc] { proc.interrupt(); });
  sim.run();
  ASSERT_TRUE(proc.done());
  // Segment 2 (35..70) dies at 50: 15 s lost, 10 s restart, then the
  // remaining 70 s of work + 3 checkpoints replay cleanly.
  EXPECT_EQ(proc.stats().makespan.ps(), Duration::seconds(145).ps());
  EXPECT_EQ(proc.stats().failures, 1);
  EXPECT_EQ(proc.stats().lost_work.ps(), Duration::seconds(15).ps());
  EXPECT_EQ(proc.stats().restart_time.ps(), Duration::seconds(10).ps());
  EXPECT_EQ(proc.stats().checkpoints, 4);
}

TEST(InterruptibleProcess, FaultDuringRestartRestartsTheRestart) {
  sim::Simulator sim;
  const sim::RestartPlan plan{Duration::seconds(100), Duration::seconds(30),
                              Duration::seconds(5), Duration::seconds(10)};
  sim::InterruptibleProcess proc(sim, plan);
  proc.start();
  for (const double at : {50.0, 55.0})
    sim.schedule_at(TimePoint::origin() + Duration::seconds(at),
                    [&proc] { proc.interrupt(); });
  sim.run();
  ASSERT_TRUE(proc.done());
  // Fault at 50 (15 s into segment 2), second fault at 55 mid-reboot:
  // reboot restarts and completes at 65; remaining 70 s work + 3
  // checkpoints => 65 + 85 = 150.
  EXPECT_EQ(proc.stats().makespan.ps(), Duration::seconds(150).ps());
  EXPECT_EQ(proc.stats().failures, 2);
  EXPECT_EQ(proc.stats().lost_work.ps(), Duration::seconds(15).ps());
  EXPECT_EQ(proc.stats().restart_time.ps(), Duration::seconds(15).ps());
}

TEST(InterruptibleProcess, FaultsAfterCompletionAreIgnored) {
  sim::Simulator sim;
  const sim::RestartPlan plan{Duration::seconds(10), Duration::seconds(10),
                              Duration::seconds(1), Duration::seconds(5)};
  sim::InterruptibleProcess proc(sim, plan);
  proc.start();
  sim.schedule_at(TimePoint::origin() + Duration::seconds(500),
                  [&proc] { proc.interrupt(); });
  sim.run();
  EXPECT_TRUE(proc.done());
  EXPECT_EQ(proc.stats().failures, 0);
  EXPECT_EQ(proc.stats().makespan.ps(), Duration::seconds(11).ps());
}

TEST(MonteCarlo, DesMeanMatchesYoungDalyAnalytic) {
  // Enough failures per run (W/M = 2) for the mean over 1,500 seeds to sit
  // on the closed form.
  const double w = 10000.0, c = 100.0, r = 300.0, m = 5000.0;
  const double tau = daly_interval_s(c, m);
  const sim::RestartPlan plan{Duration::seconds(w), Duration::seconds(tau),
                              Duration::seconds(c), Duration::seconds(r)};
  const MonteCarloResult mc =
      expected_interrupted_makespan(plan, m / 3600.0, 1500, 2024);
  const double analytic = expected_makespan_s(w, tau, c, r, m);
  EXPECT_NEAR(mc.mean_makespan_s / analytic, 1.0, 0.03);
  EXPECT_GT(mc.mean_failures, 1.0);
  EXPECT_EQ(mc.completion_rate, 1.0);
}

TEST(MonteCarlo, DeterministicForAGivenSeed) {
  const sim::RestartPlan plan{Duration::seconds(5000), Duration::seconds(800),
                              Duration::seconds(50), Duration::seconds(200)};
  const MonteCarloResult a = expected_interrupted_makespan(plan, 1.5, 200, 9);
  const MonteCarloResult b = expected_interrupted_makespan(plan, 1.5, 200, 9);
  EXPECT_EQ(a.mean_makespan_s, b.mean_makespan_s);
  EXPECT_EQ(a.mean_failures, b.mean_failures);
}

// ---------------------------------------------------------------------------
// Degraded routing
// ---------------------------------------------------------------------------

TEST(DegradedRouting, HealthyOverlayReproducesDeterministicRoutes) {
  const topo::FatTree& t = full_topo();
  const topo::DegradedTopology d(t);
  for (int s : {0, 999, 2500})
    for (int e = 0; e < t.node_count(); e += 211) {
      const auto healthy = t.route(topo::NodeId{s}, topo::NodeId{e});
      const auto degraded = d.route(topo::NodeId{s}, topo::NodeId{e});
      ASSERT_TRUE(degraded.has_value());
      EXPECT_EQ(*degraded, healthy) << s << " -> " << e;
    }
}

TEST(DegradedRouting, EverySingleInterCuSwitchFailureReroutesCleanly) {
  const topo::FatTree& t = full_topo();
  topo::DegradedTopology d(t);
  for (int sw = 0; sw < t.params().inter_cu_switches; ++sw) {
    d.reset();
    d.fail_inter_cu_switch(sw);
    EXPECT_EQ(d.alive_node_count(), t.node_count());  // nodes unaffected
    const topo::RouteAudit audit = audit_routes(d);
    EXPECT_TRUE(audit.clean()) << "switch " << sw << ": broken=" << audit.broken
                               << " loops=" << audit.loops
                               << " below_bfs=" << audit.below_bfs_floor;
    EXPECT_EQ(audit.unreachable, 0) << "switch " << sw;
    // An alternate uplink switch gives an equal-length detour.
    EXPECT_EQ(audit.max_extra_hops, 0) << "switch " << sw;
    EXPECT_GT(audit.pairs_checked, 100) << "switch " << sw;
  }
}

TEST(DegradedRouting, SampledSingleCrossbarFailuresStayLoopFreeAndBounded) {
  const topo::FatTree& t = full_topo();
  topo::DegradedTopology d(t);
  for (int id = 0; id < t.crossbar_count(); id += 37) {
    d.reset();
    d.fail_crossbar(id);
    const topo::RouteAudit audit = audit_routes(d, 401, 149);
    EXPECT_TRUE(audit.clean()) << "crossbar " << id;
    EXPECT_EQ(audit.unreachable, 0) << "crossbar " << id;
    // Worst case is a dead entry crossbar: one extra up-down in the
    // destination CU.
    EXPECT_LE(audit.max_extra_hops, 2) << "crossbar " << id;
  }
}

TEST(DegradedRouting, CutCableOnTheDefaultRouteIsAvoided) {
  const topo::FatTree& t = full_topo();
  topo::DegradedTopology d(t);
  const topo::NodeId src{0}, dst{3059};
  const auto healthy = t.route(src, dst);
  ASSERT_GE(healthy.size(), 2u);
  d.fail_link(healthy[0], healthy[1]);
  const auto rerouted = d.route(src, dst);
  ASSERT_TRUE(rerouted.has_value());
  for (std::size_t i = 0; i + 1 < rerouted->size(); ++i) {
    EXPECT_TRUE(d.link_usable((*rerouted)[i], (*rerouted)[i + 1]));
    EXPECT_FALSE((*rerouted)[i] == healthy[0] &&
                 (*rerouted)[i + 1] == healthy[1]);
  }
  const std::set<int> unique(rerouted->begin(), rerouted->end());
  EXPECT_EQ(unique.size(), rerouted->size());
}

TEST(DegradedRouting, FailedNodeAndItsCrossbarNeighborsAreHandled) {
  const topo::FatTree& t = full_topo();
  topo::DegradedTopology d(t);
  d.fail_node(topo::NodeId{5});
  EXPECT_FALSE(d.node_alive(topo::NodeId{5}));
  EXPECT_FALSE(d.route(topo::NodeId{0}, topo::NodeId{5}).has_value());
  // Failing a lower crossbar kills all eight attached nodes.
  d.reset();
  const topo::Attachment& att = t.attachment(topo::NodeId{16});
  d.fail_crossbar(t.cu_lower_id(att.cu, att.lower_xbar));
  EXPECT_EQ(d.alive_node_count(), t.node_count() - 8);
}

TEST(DegradedRouting, CombinedScenarioHasNoLoopsOrBrokenCables) {
  const topo::FatTree& t = full_topo();
  topo::DegradedTopology d(t);
  d.fail_inter_cu_switch(2);
  d.fail_crossbar(t.cu_lower_id(4, 7));
  d.fail_crossbar(t.cu_upper_id(9, 3));
  d.fail_link(t.cu_lower_id(0, 0), t.cu_upper_id(0, 0));
  d.fail_node(topo::NodeId{100});
  const topo::RouteAudit audit = audit_routes(d, 257, 83);
  EXPECT_EQ(audit.broken, 0);
  EXPECT_EQ(audit.loops, 0);
  EXPECT_EQ(audit.below_bfs_floor, 0);
  EXPECT_EQ(audit.unreachable, 0);
}

TEST(DegradedRouting, ScheduleAppliedThroughInjectorDegradesFabric) {
  const topo::FatTree& t = full_topo();
  const auto cables = cable_list(t);
  topo::DegradedTopology fabric(t);
  sim::Simulator sim;
  FaultInjector injector(sim, Scenario{}
                                  .fail_inter_cu_switch(Duration::seconds(10), 1)
                                  .fail_node(Duration::seconds(20), 42)
                                  .fail_link(Duration::seconds(30), 100)
                                  .build());
  injector.arm([&](const FailureEvent& ev) {
    apply_to_fabric(fabric, ev, cables);
  });
  sim.run();
  EXPECT_EQ(fabric.failed_crossbar_count(), 36);
  EXPECT_FALSE(fabric.node_alive(topo::NodeId{42}));
  EXPECT_TRUE(fabric.link_failed(cables[100].first, cables[100].second));
  EXPECT_TRUE(audit_routes(fabric, 613, 149).clean());
}

// ---------------------------------------------------------------------------
// io checkpoint-cost sharing and end-to-end study
// ---------------------------------------------------------------------------

TEST(CheckpointCost, IoSubsystemExposesTheSharedCostPath) {
  const arch::SystemSpec system = arch::make_roadrunner();
  const io::IoSubsystem io(system);
  const DataSize state = DataSize::gib(4);
  EXPECT_EQ(io.checkpoint_cost(state).ps(),
            (io.metadata_storm(system.node_count()) + io.collective_write(state))
                .ps());
  const Duration interval = Duration::seconds(4 * 3600.0);
  EXPECT_NEAR(io.checkpoint_overhead(state, interval),
              io.checkpoint_cost(state).sec() / interval.sec(), 1e-12);
}

TEST(ResilienceStudy, FullMachinePointMatchesAnalyticWithinTenPercent) {
  const arch::SystemSpec system = arch::make_roadrunner();
  StudyConfig cfg;
  cfg.replications = 600;
  const ResiliencePoint pt =
      study_point(system, full_topo(), 3060,
                  hpl_fault_free_s(system, 3060), cfg);
  EXPECT_GT(pt.system_mtbf_h, 1.0);
  EXPECT_LT(pt.system_mtbf_h, 200.0);
  EXPECT_GT(pt.checkpoint_s, 1.0);
  EXPECT_LE(pt.interval_s, pt.fault_free_s);
  EXPECT_GT(pt.analytic_s, pt.fault_free_s);
  EXPECT_GT(pt.efficiency, 0.5);
  EXPECT_LE(pt.efficiency, 1.0);
  EXPECT_LT(pt.model_error(), 0.10);
}

TEST(ResilienceStudy, EfficiencyLossGrowsWithNodeCount) {
  const arch::SystemSpec system = arch::make_roadrunner();
  StudyConfig cfg;
  cfg.replications = 300;
  const auto points = sweep_study(system, full_topo(), {16, 3060}, 2000, cfg);
  ASSERT_EQ(points.size(), 2u);
  // More components => shorter MTBF => more overhead.
  EXPECT_GT(points[0].system_mtbf_h, points[1].system_mtbf_h);
  EXPECT_LT(points[0].overhead_analytic, points[1].overhead_analytic);
  EXPECT_GT(points[0].efficiency, points[1].efficiency);
}

TEST(ResilienceStudy, DeterministicTables) {
  const arch::SystemSpec system = arch::make_roadrunner();
  StudyConfig cfg;
  cfg.replications = 100;
  const ResiliencePoint a =
      study_point(system, full_topo(), 256, 3600.0, cfg);
  const ResiliencePoint b =
      study_point(system, full_topo(), 256, 3600.0, cfg);
  EXPECT_EQ(a.simulated_s, b.simulated_s);
  EXPECT_EQ(a.mean_failures, b.mean_failures);
  EXPECT_EQ(a.interval_s, b.interval_s);
}

// hpl_fault_free_s keeps, per thread, the walks it priced against the
// last spec it saw.  Every call, first or repeated, returns the walk's
// own bits: the literals are what the function returned before it kept
// a table.
TEST(ResilienceStudy, FaultFreeTimesAreTheWalksOwnBitsInAnyOrder) {
  const arch::SystemSpec system = arch::make_roadrunner();
  const std::map<int, double> walked = {
      {256, 0x1.1bb735f94d61fp+11},  {512, 0x1.91e65ecc7dea8p+11},
      {768, 0x1.eb99b970e7cefp+11},  {1020, 0x1.1b45df24d8a96p+12},
      {1536, 0x1.5bc41972b03e4p+12}, {2040, 0x1.90b1af311419dp+12},
      {2304, 0x1.a9a7333501307p+12}, {2610, 0x1.c5481cdc7e308p+12},
      {3060, 0x1.eaacc10e7461fp+12}};
  // The campaign's nine partition sizes, each twice, shuffled.
  for (const int nodes : {1536, 256, 3060, 768, 2304, 512, 2610, 1020, 2040,
                          256, 2304, 1536, 512, 3060, 2040, 768, 1020, 2610})
    EXPECT_EQ(hpl_fault_free_s(system, nodes), walked.at(nodes)) << nodes;
}

TEST(ResilienceStudy, FaultFreeTimeIsNeverServedToAnotherSpec) {
  // Specs that differ from Roadrunner in one field the walk reads: the
  // Cell BE triblade, and Opteron clocks 1% higher.  Alternating between
  // them at one size, each call returns its own spec's walk.
  const arch::SystemSpec roadrunner = arch::make_roadrunner();
  arch::SystemSpec cell_be = roadrunner;
  cell_be.node = arch::make_triblade(arch::CellVariant::kCellBe);
  arch::SystemSpec faster = roadrunner;
  for (arch::ProcessorSpec& socket : faster.node.opteron_blade.sockets)
    for (arch::CoreGroup& group : socket.core_groups)
      group.clock = Frequency::hz(group.clock.in_hz() * 1.01);
  EXPECT_TRUE(roadrunner == arch::make_roadrunner());
  EXPECT_FALSE(cell_be == roadrunner);
  EXPECT_FALSE(faster == roadrunner);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(hpl_fault_free_s(roadrunner, 1536), 0x1.5bc41972b03e4p+12);
    EXPECT_EQ(hpl_fault_free_s(cell_be, 1536), 0x1.8f189bb5279eap+14);
    EXPECT_EQ(hpl_fault_free_s(roadrunner, 1536), 0x1.5bc41972b03e4p+12);
    EXPECT_EQ(hpl_fault_free_s(faster, 1536), 0x1.5ba387a1fcdd3p+12);
    EXPECT_EQ(hpl_fault_free_s(faster, 1536), 0x1.5ba387a1fcdd3p+12);
  }
}

// ---------------------------------------------------------------------------
// Error taxonomy and the retry backoff
// ---------------------------------------------------------------------------

TEST(Taxonomy, ErrorClassStringsRoundTrip) {
  for (const ErrorClass c :
       {ErrorClass::kTransient, ErrorClass::kPermanent, ErrorClass::kPoison}) {
    const auto back = error_class_from_string(to_string(c));
    ASSERT_TRUE(back.has_value()) << to_string(c);
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(error_class_from_string("flaky").has_value());
  EXPECT_FALSE(error_class_from_string("").has_value());
}

TEST(Taxonomy, BackoffIsTruncatedExponentialAndDeterministic) {
  // 100, 200, 400, ... doubling per loss, clamped at the cap (the default
  // policy: 100 us, x2, 10,000 us).
  const engine::RetryPolicy rp{};
  EXPECT_EQ(rp.backoff_after_us(1), 100.0);
  EXPECT_EQ(rp.backoff_after_us(2), 200.0);
  EXPECT_EQ(rp.backoff_after_us(5), 1'600.0);
  EXPECT_EQ(rp.backoff_after_us(8), 10'000.0);  // clamped
  EXPECT_EQ(rp.backoff_after_us(50), 10'000.0);
  // Same inputs, same wait -- every time (the retry loop relies on it).
  EXPECT_EQ(rp.backoff_after_us(7), engine::RetryPolicy{}.backoff_after_us(7));
}

TEST(Taxonomy, ExitCodeContractIsStable) {
  // The process exit-code contract (fault/taxonomy.hpp, README): these
  // values are wired into CI scripts and must never drift.
  EXPECT_EQ(to_int(ExitCode::kClean), 0);
  EXPECT_EQ(to_int(ExitCode::kError), 1);
  EXPECT_EQ(to_int(ExitCode::kUsage), 2);
  EXPECT_EQ(to_int(ExitCode::kDegraded), 3);
  EXPECT_EQ(to_int(ExitCode::kBudgetExceeded), 4);
  EXPECT_EQ(to_int(ExitCode::kCrash), 137);

  EXPECT_STREQ(describe(ExitCode::kClean), "clean");
  EXPECT_STREQ(describe(ExitCode::kDegraded), "degraded");
  EXPECT_STREQ(describe(ExitCode::kBudgetExceeded),
               "failure-budget-exceeded");
  EXPECT_STREQ(describe(ExitCode::kCrash), "crash-hook");

  for (const ExitCode c :
       {ExitCode::kClean, ExitCode::kError, ExitCode::kUsage,
        ExitCode::kDegraded, ExitCode::kBudgetExceeded, ExitCode::kCrash}) {
    const auto back = exit_code_from_int(to_int(c));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(exit_code_from_int(5).has_value());
  EXPECT_FALSE(exit_code_from_int(-1).has_value());
}

TEST(Taxonomy, CliUsageErrorsExitWithTheUsageCode) {
  // util/cli cannot include fault/, so its usage exit is pinned here.
  EXPECT_EQ(CliParser::kUsageExitCode, to_int(ExitCode::kUsage));
}

}  // namespace
}  // namespace rr::fault
