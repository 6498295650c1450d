// Machine-readable DES performance harness (not a paper figure): measures
// the event-queue hot path that every paper-facing result flows through,
// and writes des_perf.json (the committed Sweep3D DES trajectory is the
// separate root BENCH_DES.json, which this harness never writes).
//
// Workloads:
//   * schedule-heavy  -- self-rescheduling event chains (pure heap + pool
//                        throughput), measured on both the laned-heap
//                        Simulator and the legacy priority-queue
//                        ReferenceSimulator; the harness FAILS if the
//                        Simulator's event pool grows once the first
//                        window of chains is armed;
//   * cml-ping        -- two SPE ranks on two nodes ping-pong a
//                        checksummed message through CmlContext::send/
//                        recv: the awaiters, matching and
//                        SimNetwork::route every CML program runs;
//   * sweep3d-scale   -- end-to-end model::figure13_series scenarios/sec.
//
// The schedule-heavy workload also runs an *instrumented* variant (one
// obs::Counter increment per event, queue gauges snapshotted at the end)
// and reports the metrics overhead; the instrumented rate is held to the
// same checked-in floor, which is how CI enforces the "metrics cost < 5%
// on the hot path" budget (the floor already allows 20% of noise).
//
// Flags: --quick (CI smoke sizes), --out=des_perf.json,
//        --floor=path (fail if any events/sec falls >20% below the
//        checked-in floor values; a floor file that lacks a gated key or
//        names one nothing gates exits 2 before any workload runs),
//        --report=PATH (obs run report).
//
// Exit codes (fault::ExitCode): 0 when every gate holds; 1 when a gate
// fails (a floor regression or pool growth) or an output cannot be
// written; 2 for a usage error or a rejected floor file.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cml/cml.hpp"
#include "fault/taxonomy.hpp"
#include "model/sweep_model.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sim/reference_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "topo/fat_tree.hpp"
#include "util/cli.hpp"
#include "util/fileio.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace rr;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- schedule-heavy: `window` concurrent chains, each callback re-arms
// itself until `total` events have been scheduled. ---
template <typename Sim>
struct ChainDriver {
  Sim sim;
  Rng rng{42};
  std::uint64_t scheduled = 0;
  std::uint64_t total = 0;

  void arm() {
    ++scheduled;
    sim.schedule(
        Duration::picoseconds(static_cast<std::int64_t>(rng.next_below(4096))),
        [this] {
          if (scheduled < total) arm();
        });
  }
};

struct ScheduleHeavyResult {
  double events_per_sec = 0.0;
  std::size_t pool_capacity_early = 0;  ///< once the first window is armed
  std::size_t pool_capacity_final = 0;
};

template <typename Sim>
ScheduleHeavyResult schedule_heavy(std::uint64_t total, std::uint64_t window) {
  ChainDriver<Sim> d;
  d.total = total;
  ScheduleHeavyResult r;
  constexpr bool pooled = requires { d.sim.pool_capacity(); };
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t w = 0; w < window && d.scheduled < total; ++w) d.arm();
  if constexpr (pooled) r.pool_capacity_early = d.sim.pool_capacity();
  d.sim.run();
  r.events_per_sec = static_cast<double>(d.sim.events_run()) / seconds_since(t0);
  if constexpr (pooled) r.pool_capacity_final = d.sim.pool_capacity();
  return r;
}

// Same chain workload with one relaxed counter increment per event --
// the per-event cost a fully instrumented campaign pays -- plus the
// queue gauges snapshotted once at the end.
struct InstrumentedChainDriver {
  sim::Simulator sim;
  Rng rng{42};
  std::uint64_t scheduled = 0;
  std::uint64_t total = 0;
  obs::Counter* events = nullptr;

  void arm() {
    ++scheduled;
    sim.schedule(
        Duration::picoseconds(static_cast<std::int64_t>(rng.next_below(4096))),
        [this] {
          events->inc();
          if (scheduled < total) arm();
        });
  }
};

double schedule_heavy_rate_instrumented(std::uint64_t total,
                                        std::uint64_t window) {
  InstrumentedChainDriver d;
  d.total = total;
  d.events = &obs::MetricsRegistry::global().counter("des.events");
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t w = 0; w < window && d.scheduled < total; ++w) d.arm();
  d.sim.run();
  const double s = seconds_since(t0);
  obs::snapshot_simulator(d.sim, obs::MetricsRegistry::global(), "des", s);
  return static_cast<double>(d.sim.events_run()) / s;
}

// --- cml-ping: rank 0 sends i to rank 1, on another node, which sends
// it back; every message crosses SPE->PPE, PCIe, InfiniBand, PCIe and
// PPE->SPE. ---
double cml_ping_rate(int round_trips, std::uint64_t* events) {
  topo::FatTreeParams tp;
  tp.cu_count = 1;
  const topo::FatTree topo = topo::FatTree::build(tp);
  sim::Simulator s;
  cml::CmlWorld world(s, topo, cml::CmlConfig{2, 1, 1});
  std::uint64_t sum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t finished = world.run([&](cml::CmlContext ctx) -> sim::Task<void> {
    const cml::Rank peer = 1 - ctx.rank();
    for (int i = 0; i < round_trips; ++i) {
      if (ctx.rank() == 0) {
        co_await ctx.send(peer, 0, std::vector<double>(1, static_cast<double>(i)));
        sum += static_cast<std::uint64_t>((co_await ctx.recv(peer, 1)).payload[0]);
      } else {
        cml::Message m = co_await ctx.recv(peer, 0);
        co_await ctx.send(peer, 1, std::move(m.payload));
      }
    }
  });
  const double rate = static_cast<double>(s.events_run()) / seconds_since(t0);
  *events = s.events_run();
  if (finished != 2 ||
      sum != static_cast<std::uint64_t>(round_trips) * (round_trips - 1) / 2) {
    std::cerr << "cml ping checksum mismatch\n";
    std::exit(1);
  }
  return rate;
}

// --- sweep3d-scale: end-to-end Fig. 13 series throughput. ---
double sweep3d_rate(const std::vector<int>& counts, int reps, int* scenarios) {
  const auto t0 = std::chrono::steady_clock::now();
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto series = model::figure13_series(counts);
    for (const auto& pt : series) sink += pt.cell_measured_s;
  }
  *scenarios = static_cast<int>(counts.size()) * reps;
  const double rate = static_cast<double>(*scenarios) / seconds_since(t0);
  if (!(sink > 0.0)) std::exit(1);  // keep the series from being elided
  return rate;
}

// The keys a floor file holds: the floors check_floor holds the rates to.
constexpr std::string_view kGatedFloors[] = {
    "schedule_heavy_events_per_sec", "cml_ping_events_per_sec",
    "sweep3d_scenarios_per_sec"};

[[noreturn]] void floor_error(const CliParser& cli, const std::string& what) {
  std::cerr << cli.program() << ": --floor=" << cli.get("floor", "") << ": "
            << what << "\n";
  std::exit(CliParser::kUsageExitCode);
}

/// The --floor file, read and checked before any workload runs: it must
/// give a number for every gated key and name no other key but "_note",
/// so a renamed workload or a misspelt key fails the run instead of
/// silently dropping its gate.
Json read_floor(const CliParser& cli) {
  Json floor;
  try {
    floor = Json::parse(read_file(cli.get("floor", "")));
  } catch (const std::exception& e) {
    floor_error(cli, e.what());
  }
  if (!floor.is_object()) floor_error(cli, "not a JSON object");
  for (const std::string_view key : kGatedFloors) {
    const Json* f = floor.find(key);
    if (f == nullptr || !f->is_number())
      floor_error(cli, "no number for gated key " + std::string(key));
  }
  for (const auto& member : floor.as_object()) {
    const std::string& key = member.first;
    if (key != "_note" &&
        std::ranges::find(kGatedFloors, key) == std::end(kGatedFloors))
      floor_error(cli, "key " + key + " gates nothing");
  }
  return floor;
}

void check_floor(const Json& floor, const char* key, double measured,
                 bool* ok) {
  const double f = floor.at(key).as_double();
  const double min_allowed = f * 0.8;  // >20% regression fails
  if (measured < min_allowed) {
    std::cerr << "FLOOR REGRESSION: " << key << " = " << measured << " < "
              << min_allowed << " (floor " << f << " - 20%)\n";
    *ok = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliParser cli(argc, argv, {"quick", "out", "floor", "report"});
  const bool quick = cli.get_bool("quick", false);
  const std::string out_path = cli.get("out", "des_perf.json");
  const std::optional<Json> floor =
      cli.has("floor") ? std::optional<Json>(read_floor(cli)) : std::nullopt;

  const std::uint64_t sched_total = quick ? 200'000 : 1'000'000;
  const int ping_round_trips = quick ? 25'000 : 100'000;
  std::vector<int> counts{1, 2, 4, 8, 16, 32, 64};
  if (!quick) counts.insert(counts.end(), {128, 256, 512});

  print_banner(std::cout, "DES event-queue performance (bench_des_perf)");

  const ScheduleHeavyResult sched =
      schedule_heavy<sim::Simulator>(sched_total, 10'000);
  const double sched_new = sched.events_per_sec;
  const double sched_instr =
      schedule_heavy_rate_instrumented(sched_total, 10'000);
  const double overhead_pct = (1.0 - sched_instr / sched_new) * 100.0;
  const double sched_ref =
      schedule_heavy<sim::ReferenceSimulator>(sched_total, 10'000).events_per_sec;
  std::uint64_t ping_events = 0;
  const double cml_ping = cml_ping_rate(ping_round_trips, &ping_events);
  int scenarios = 0;
  const double sweep3d = sweep3d_rate(counts, quick ? 1 : 3, &scenarios);

  Table t({"workload", "events", "events/sec", "vs legacy"});
  t.row().add("schedule-heavy (laned heap)").add(sched_total).add(sched_new, 0)
      .add(sched_new / sched_ref, 2);
  t.row().add("schedule-heavy (with obs metrics)").add(sched_total)
      .add(sched_instr, 0).add(sched_instr / sched_ref, 2);
  t.row().add("schedule-heavy (legacy priority queue)").add(sched_total)
      .add(sched_ref, 0).add(1.0, 2);
  t.row().add("CML ping-pong (2 nodes)").add(ping_events).add(cml_ping, 0).add("-");
  t.row().add("sweep3d scaling (scenarios/sec)").add(scenarios).add(sweep3d, 2)
      .add("-");
  t.print(std::cout);
  std::cout << "schedule-heavy pool capacity: " << sched.pool_capacity_early
            << " once the first window was armed, " << sched.pool_capacity_final
            << " at end (flat => pooled slots recycled)\n"
            << "metrics overhead on schedule-heavy: "
            << format_double(overhead_pct, 1)
            << "% (counter increment per event; budget < 5%, floor-gated)\n";

  Json j = Json::object();
  j.set("engine", sim::engine_name());
  j.set("quick", quick);
  j.set("schedule_heavy_events", sched_total);
  j.set("schedule_heavy_events_per_sec", sched_new);
  j.set("schedule_heavy_instrumented_events_per_sec", sched_instr);
  j.set("metrics_overhead_pct", overhead_pct);
  j.set("schedule_heavy_baseline_events_per_sec", sched_ref);
  j.set("schedule_heavy_pool_capacity_early", sched.pool_capacity_early);
  j.set("schedule_heavy_pool_capacity_final", sched.pool_capacity_final);
  j.set("cml_ping_round_trips", ping_round_trips);
  j.set("cml_ping_events", ping_events);
  j.set("cml_ping_events_per_sec", cml_ping);
  j.set("sweep3d_scenarios", scenarios);
  j.set("sweep3d_scenarios_per_sec", sweep3d);
  if (!write_file_atomic(out_path, j.dump(2) + "\n")) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";

  // Hard gate, enforced on every run.  Flat memory: the pool must not
  // grow once the first window of chains sized it.
  bool ok = true;
  if (sched.pool_capacity_final != sched.pool_capacity_early) {
    std::cerr << "FAIL: schedule-heavy pool grew " << sched.pool_capacity_early
              << " -> " << sched.pool_capacity_final << "\n";
    ok = false;
  }
  if (floor) {
    check_floor(*floor, "schedule_heavy_events_per_sec", sched_new, &ok);
    // The instrumented variant must clear the *same* floor: metrics that
    // cost more than the floor's 20% noise margin fail the smoke run.
    check_floor(*floor, "schedule_heavy_events_per_sec", sched_instr, &ok);
    check_floor(*floor, "cml_ping_events_per_sec", cml_ping, &ok);
    check_floor(*floor, "sweep3d_scenarios_per_sec", sweep3d, &ok);
  }

  if (const std::string rpath = cli.get("report", ""); !rpath.empty()) {
    obs::RunInfo info;
    info.name = "bench_des_perf";
    info.params = Json::object();
    info.params.set("quick", quick)
        .set("schedule_heavy_events", sched_total)
        .set("cml_ping_round_trips", ping_round_trips);
    obs::RunReport rep(std::move(info));
    rep.add_snapshot(obs::MetricsRegistry::global().snapshot());
    rep.set_extra("bench", j);
    rep.set_extra("floor_ok", ok);
    if (rep.write(rpath)) {
      std::cout << "wrote run report to " << rpath << "\n";
    } else {
      std::cerr << "cannot write " << rpath << "\n";
      ok = false;
    }
  }
  return fault::to_int(ok ? fault::ExitCode::kClean : fault::ExitCode::kError);
}
