// Sweep-engine harness (no paper figure): times a 10-point Monte-Carlo
// resilience sweep three ways -- the legacy serial loop, the engine with
// one worker, and the engine with all available workers -- and verifies
// the determinism contract: all three produce bit-identical metric
// vectors (memcmp over every double, not a tolerance).  Pass
// --work-dir=DIR to additionally run the sweep as a journaled campaign
// (campaign/service.hpp, in-process): its results must reproduce the
// engine results bit for bit, and a rerun of the same work dir resumes
// from its journal.  The exit code covers only those bit-identity and
// resume checks (it is also 1 when a --trace or --report file cannot be
// written); the speed-up is printed next to its >= 3x target at 4
// threads and enforced nowhere.
//
// Observability (DESIGN.md §10): pass --report=PATH to emit a run-report
// JSON (+ Markdown sibling) carrying the campaign identity, provenance,
// the full metrics snapshot, and percentile tables; pass --trace=PATH to
// emit one Chrome/Perfetto trace holding both wall-clock profiling spans
// (each bench phase) and simulated-time spans (a traced SimNetwork run).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "arch/spec.hpp"
#include "campaign/service.hpp"
#include "comm/network.hpp"
#include "fault/resilience_study.hpp"
#include "fault/taxonomy.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/report.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"
#include "sweep_engine/result_store.hpp"
#include "sweep_engine/studies.hpp"
#include "topo/fat_tree.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double time_s(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool bit_identical(const std::vector<rr::fault::ResiliencePoint>& a,
                   const std::vector<rr::fault::ResiliencePoint>& b) {
  if (a.size() != b.size()) return false;
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& p = a[i];
    const auto& q = b[i];
    if (p.nodes != q.nodes || !same(p.fault_free_s, q.fault_free_s) ||
        !same(p.system_mtbf_h, q.system_mtbf_h) ||
        !same(p.checkpoint_s, q.checkpoint_s) ||
        !same(p.interval_s, q.interval_s) ||
        !same(p.analytic_s, q.analytic_s) ||
        !same(p.simulated_s, q.simulated_s) ||
        !same(p.mean_failures, q.mean_failures) ||
        !same(p.overhead_analytic, q.overhead_analytic) ||
        !same(p.overhead_simulated, q.overhead_simulated) ||
        !same(p.efficiency, q.efficiency))
      return false;
  }
  return true;
}

// A short traced SimNetwork exchange: spans land on sim-time tracks
// ("ib/node0", "pcie/node0.cell2", "eib") in the same recorder the wall
// spans use, so the exported file demonstrates the unified timeline.
void traced_network_demo(const rr::topo::FatTree& topo,
                         rr::sim::TraceRecorder& trace) {
  using namespace rr;
  sim::Simulator sim;
  sim.attach_trace(&trace);
  comm::SimNetwork net(sim, topo);
  net.attach_trace(&trace);
  sim::TaskRegistry reg(sim);
  const int nodes = topo.node_count();
  const int cells = net.config().cells_per_node;
  for (int i = 0; i < 4; ++i) {
    // SPE messages to another node, relayed over PCIe and InfiniBand.
    reg.spawn(net.spe_transfer(0, i % cells, 1 + i % (nodes - 1), i % cells,
                               DataSize::mib(1)));
    reg.spawn(net.dacs_transfer(0, i % cells, DataSize::kib(64)));
  }
  reg.spawn(net.spe_transfer(0, 0, 0, 1, DataSize::kib(64)));  // another Cell
  reg.spawn(net.spe_transfer(0, 0, 0, 0, DataSize::kib(16)));  // same Cell: EIB
  reg.drain();
  net.export_metrics(obs::MetricsRegistry::global());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rr;
  const arch::SystemSpec system = arch::make_roadrunner();
  const topo::FatTree& topo = engine::SharedContext::instance().topology();

  const CliParser cli(argc, argv, {"report", "trace", "work-dir"});
  const std::string report_path = cli.get("report", "");
  const std::string trace_path = cli.get("trace", "");
  sim::TraceRecorder trace;
  if (!trace_path.empty()) obs::WallTrace::global().attach(&trace);
  obs::Histogram& phase_us = obs::MetricsRegistry::global().histogram(
      "bench.phase_us", obs::latency_bounds_us());

  // A 10-point interrupted-HPL sweep over large node counts, where the
  // fleet MTBF is short enough that the DES actually replays failures
  // and restarts -- small machines almost never fail, so tiny node
  // counts would time nothing but loop overhead.  Fewer Monte-Carlo
  // replications than the headline study keep the three timed runs
  // short, but each scenario is the real replay loop.  One replication
  // is only a handful of DES events (a ~2 h run sees ~0.3 interrupts),
  // so the replication count is cranked well past the headline study's
  // 3,000 to give the pool measurable work per scenario.
  const std::vector<int> node_counts{768,  1024, 1280, 1536, 1792,
                                     2048, 2304, 2560, 2816, 3060};
  fault::StudyConfig cfg;
  cfg.replications = 60'000;

  const unsigned hw = std::thread::hardware_concurrency();
  const int n_threads = hw > 1 ? static_cast<int>(hw) : 1;

  print_banner(std::cout, "Sweep engine: 10-point resilience sweep, " +
                              std::to_string(cfg.replications) +
                              " replications/point");

  std::vector<fault::ResiliencePoint> serial, one_thread, n_thread;
  double t_serial = 0.0, t_one = 0.0, t_n = 0.0;
  {
    obs::ProfSpan span("phase/serial_loop", &phase_us);
    t_serial = time_s(
        [&] { serial = fault::hpl_study(system, topo, node_counts, cfg); });
  }

  engine::SweepEngine eng1({1});
  {
    obs::ProfSpan span("phase/engine_1_worker", &phase_us);
    t_one = time_s([&] {
      one_thread =
          engine::parallel_hpl_study(eng1, system, topo, node_counts, cfg);
    });
  }

  engine::SweepEngine engN({n_threads});
  {
    obs::ProfSpan span("phase/engine_all_workers", &phase_us);
    t_n = time_s([&] {
      n_thread =
          engine::parallel_hpl_study(engN, system, topo, node_counts, cfg);
    });
  }

  Table t({"configuration", "threads", "wall (s)", "speedup vs serial"});
  t.row().add("legacy serial loop").add(1).add(t_serial, 3).add(1.0, 2);
  t.row().add("engine, 1 worker").add(1).add(t_one, 3).add(t_serial / t_one, 2);
  t.row()
      .add("engine, all workers")
      .add(engN.threads())
      .add(t_n, 3)
      .add(t_serial / t_n, 2);
  t.print(std::cout);

  const bool serial_vs_one = bit_identical(serial, one_thread);
  const bool one_vs_n = bit_identical(one_thread, n_thread);
  std::cout << "\nbit-identical metrics, serial vs engine(1 thread):  "
            << (serial_vs_one ? "yes" : "NO") << "\n"
            << "bit-identical metrics, engine(1) vs engine("
            << engN.threads() << "):       " << (one_vs_n ? "yes" : "NO")
            << "\n";

  std::cout << "\nspeed-up, engine(" << engN.threads()
            << ") vs serial: " << format_double(t_serial / t_n, 2)
            << "x (target >= 3x at 4 threads; not enforced)\n";

  bool resumable_ok = true;
  if (const std::string work_dir = cli.get("work-dir", ""); !work_dir.empty()) {
    obs::ProfSpan span("phase/resilient_run", &phase_us);
    // The same 10 points as a campaign with no workers: journaled in
    // work_dir, resumed from it on a rerun, seeded as hpl_study seeds.
    campaign::CampaignSpec spec;
    spec.name = "bench_sweep_engine";
    spec.params = engine::hpl_campaign_params(node_counts, cfg);
    spec.scenarios = static_cast<int>(node_counts.size());
    spec.seed_of = [&](int i) {
      return fault::study_point_seed(
          cfg.seed, node_counts[static_cast<std::size_t>(i)], 0);
    };
    campaign::ServiceConfig scfg;
    scfg.workers = 0;
    scfg.work_dir = work_dir;
    const campaign::CampaignResult result = campaign::run_campaign(
        spec,
        [&](int i, const engine::CancelToken&) {
          const int nodes = node_counts[static_cast<std::size_t>(i)];
          return engine::to_json(fault::study_point(
              system, topo, nodes, fault::hpl_fault_free_s(system, nodes),
              cfg));
        },
        scfg);
    std::vector<fault::ResiliencePoint> journaled;
    for (const auto& e : result.entries)
      if (e && e->ok())
        journaled.push_back(engine::resilience_point_from_json(e->metrics));
    resumable_ok = bit_identical(n_thread, journaled);
    std::cout << "\ncampaign in " << work_dir << ": "
              << engine::to_string(result.outcome)
              << " executed=" << result.stats.executed
              << " resumed=" << result.stats.resumed << "\n"
              << "bit-identical metrics, engine vs journaled campaign: "
              << (resumable_ok ? "yes" : "NO") << "\n";
  }

  if (!trace_path.empty()) {
    // Sim-time spans to sit beside the wall spans recorded above, then
    // the final metric values as Chrome counter events on the wall axis.
    traced_network_demo(topo, trace);
    obs::export_counters(obs::MetricsRegistry::global().snapshot(), trace,
                         obs::wall_now());
    obs::WallTrace::global().attach(nullptr);
    std::ofstream os(trace_path);
    trace.write_json(os);
    if (os) {
      std::cout << "\nwrote " << trace.size() << " trace events to "
                << trace_path << " (wall + sim timelines)\n";
    } else {
      std::cout << "\nfailed to write " << trace_path << "\n";
      return fault::to_int(fault::ExitCode::kError);
    }
  }

  if (!report_path.empty()) {
    const Json params = engine::hpl_campaign_params(node_counts, cfg);
    obs::RunInfo info;
    info.name = "bench_sweep_engine";
    info.campaign = engine::campaign_hex(engine::campaign_hash(params));
    info.params = params;
    info.threads = engN.threads();
    obs::RunReport rep(std::move(info));
    rep.add_snapshot(obs::MetricsRegistry::global().snapshot());
    std::vector<double> simulated_s, analytic_s;
    simulated_s.reserve(n_thread.size());
    analytic_s.reserve(n_thread.size());
    for (const auto& p : n_thread) {
      simulated_s.push_back(p.simulated_s);
      analytic_s.push_back(p.analytic_s);
    }
    rep.add_percentiles("scenario_simulated_s", simulated_s);
    rep.add_percentiles("scenario_analytic_s", analytic_s);
    rep.set_extra("serial_wall_s", t_serial);
    rep.set_extra("engine_1_wall_s", t_one);
    rep.set_extra("engine_n_wall_s", t_n);
    rep.set_extra("speedup_vs_serial", t_serial / t_n);
    rep.set_extra("bit_identical", serial_vs_one && one_vs_n && resumable_ok);
    if (rep.write(report_path)) {
      std::cout << "wrote run report to " << report_path << " and "
                << obs::RunReport::markdown_path_for(report_path) << "\n";
    } else {
      std::cout << "failed to write " << report_path << "\n";
      return fault::to_int(fault::ExitCode::kError);
    }
  }

  return (serial_vs_one && one_vs_n && resumable_ok)
             ? fault::to_int(fault::ExitCode::kClean)
             : fault::to_int(fault::ExitCode::kError);
}
