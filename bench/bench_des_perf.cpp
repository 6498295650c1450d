// Machine-readable DES performance harness (not a paper figure): measures
// the event-queue hot path that every paper-facing result flows through,
// and writes des_perf.json (the committed Sweep3D DES trajectory is the
// separate root BENCH_DES.json, which this harness never writes).
//
// Workloads:
//   * schedule-heavy  -- self-rescheduling event chains, no cancels
//                        (pure heap + pool throughput), measured on both
//                        the tombstone-heap Simulator and the legacy
//                        linear-scan ReferenceSimulator;
//   * cancel-heavy    -- 50% of events cancelled while pending, plus
//                        cancel-after-fire churn on every prior batch
//                        (a failure cancelling sim::InterruptibleProcess's
//                        pending segment is this pattern; it made the old
//                        cancel list grow without bound).
//                        The reference engine runs a scaled-down batch
//                        count (it is O(events x cancels)) and rates are
//                        compared; the harness FAILS if the tombstone
//                        heap is not >= 5x faster or its pool grows;
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
// fails (a floor regression, the cancel-heavy speedup or pool growth) or
// an output cannot be written; 2 for a usage error or a rejected floor
// file.
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

template <typename Sim>
double schedule_heavy_rate(std::uint64_t total, std::uint64_t window) {
  ChainDriver<Sim> d;
  d.total = total;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t w = 0; w < window && d.scheduled < total; ++w) d.arm();
  d.sim.run();
  const double s = seconds_since(t0);
  return static_cast<double>(d.sim.events_run()) / s;
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

// --- cancel-heavy: per batch, schedule B events, cancel half of them
// while pending, re-cancel the previous batch's survivors (all fired:
// must be no-ops), then drain. ---
struct CancelHeavyResult {
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  std::size_t pool_capacity_early = 0;
  std::size_t pool_capacity_final = 0;
};

template <typename Sim>
CancelHeavyResult cancel_heavy(std::uint64_t total, std::uint64_t batch) {
  Sim sim;
  Rng rng(7);
  CancelHeavyResult r;
  std::vector<std::uint64_t> ids, prev_survivors;
  const auto t0 = std::chrono::steady_clock::now();
  while (r.events < total) {
    ids.clear();
    for (std::uint64_t b = 0; b < batch; ++b) {
      ids.push_back(sim.schedule(
          Duration::picoseconds(static_cast<std::int64_t>(rng.next_below(100'000))),
          [] {}));
      ++r.events;
    }
    for (std::uint64_t b = 0; b < batch; b += 2) sim.cancel(ids[b]);  // pending
    for (const std::uint64_t id : prev_survivors) sim.cancel(id);  // after fire
    sim.run();
    prev_survivors.clear();
    for (std::uint64_t b = 1; b < batch; b += 2) prev_survivors.push_back(ids[b]);
    if constexpr (requires { sim.pool_capacity(); }) {
      if (r.pool_capacity_early == 0) r.pool_capacity_early = sim.pool_capacity();
      r.pool_capacity_final = sim.pool_capacity();
    }
  }
  r.events_per_sec = static_cast<double>(r.events) / seconds_since(t0);
  return r;
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
    "schedule_heavy_events_per_sec", "cancel_heavy_events_per_sec",
    "cml_ping_events_per_sec", "sweep3d_scenarios_per_sec"};

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
  const std::uint64_t cancel_total = quick ? 200'000 : 1'000'000;
  // The reference engine is O(events x cancel-list) on this workload: a
  // full-size run would take minutes, so its rate is measured at a
  // smaller event count (the per-event rate only flatters it).
  const std::uint64_t ref_cancel_total = quick ? 20'000 : 50'000;
  const std::uint64_t batch = 1'000;
  const int ping_round_trips = quick ? 25'000 : 100'000;
  std::vector<int> counts{1, 2, 4, 8, 16, 32, 64};
  if (!quick) counts.insert(counts.end(), {128, 256, 512});

  print_banner(std::cout, "DES event-queue performance (bench_des_perf)");

  const double sched_new =
      schedule_heavy_rate<sim::Simulator>(sched_total, 10'000);
  const double sched_instr =
      schedule_heavy_rate_instrumented(sched_total, 10'000);
  const double overhead_pct = (1.0 - sched_instr / sched_new) * 100.0;
  const double sched_ref =
      schedule_heavy_rate<sim::ReferenceSimulator>(sched_total, 10'000);
  const auto cancel_new = cancel_heavy<sim::Simulator>(cancel_total, batch);
  const auto cancel_ref =
      cancel_heavy<sim::ReferenceSimulator>(ref_cancel_total, batch);
  const double speedup = cancel_new.events_per_sec / cancel_ref.events_per_sec;
  std::uint64_t ping_events = 0;
  const double cml_ping = cml_ping_rate(ping_round_trips, &ping_events);
  int scenarios = 0;
  const double sweep3d = sweep3d_rate(counts, quick ? 1 : 3, &scenarios);

  Table t({"workload", "events", "events/sec", "vs legacy"});
  t.row().add("schedule-heavy (tombstone heap)").add(sched_total).add(sched_new, 0)
      .add(sched_new / sched_ref, 2);
  t.row().add("schedule-heavy (with obs metrics)").add(sched_total)
      .add(sched_instr, 0).add(sched_instr / sched_ref, 2);
  t.row().add("schedule-heavy (legacy linear scan)").add(sched_total)
      .add(sched_ref, 0).add(1.0, 2);
  t.row().add("cancel-heavy 50% (tombstone heap)").add(cancel_new.events)
      .add(cancel_new.events_per_sec, 0).add(speedup, 2);
  t.row().add("cancel-heavy 50% (legacy linear scan)").add(cancel_ref.events)
      .add(cancel_ref.events_per_sec, 0).add(1.0, 2);
  t.row().add("CML ping-pong (2 nodes)").add(ping_events).add(cml_ping, 0).add("-");
  t.row().add("sweep3d scaling (scenarios/sec)").add(scenarios).add(sweep3d, 2)
      .add("-");
  t.print(std::cout);
  std::cout << "cancel-heavy pool capacity: " << cancel_new.pool_capacity_early
            << " after first batch, " << cancel_new.pool_capacity_final
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
  j.set("cancel_heavy_events", cancel_new.events);
  j.set("cancel_heavy_events_per_sec", cancel_new.events_per_sec);
  j.set("cancel_heavy_baseline_events", cancel_ref.events);
  j.set("cancel_heavy_baseline_events_per_sec", cancel_ref.events_per_sec);
  j.set("cancel_heavy_speedup", speedup);
  j.set("cancel_heavy_pool_capacity_early", cancel_new.pool_capacity_early);
  j.set("cancel_heavy_pool_capacity_final", cancel_new.pool_capacity_final);
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

  // Hard gates: the rebuild's acceptance criteria, enforced on every run.
  bool ok = true;
  if (speedup < 5.0) {
    std::cerr << "FAIL: cancel-heavy speedup " << speedup << " < 5x\n";
    ok = false;
  }
  // Flat memory: the pool must not grow once the first batch sized it.
  if (cancel_new.pool_capacity_final > cancel_new.pool_capacity_early) {
    std::cerr << "FAIL: cancel-heavy pool grew "
              << cancel_new.pool_capacity_early << " -> "
              << cancel_new.pool_capacity_final << "\n";
    ok = false;
  }
  if (floor) {
    check_floor(*floor, "schedule_heavy_events_per_sec", sched_new, &ok);
    // The instrumented variant must clear the *same* floor: metrics that
    // cost more than the floor's 20% noise margin fail the smoke run.
    check_floor(*floor, "schedule_heavy_events_per_sec", sched_instr, &ok);
    check_floor(*floor, "cancel_heavy_events_per_sec",
                cancel_new.events_per_sec, &ok);
    check_floor(*floor, "cml_ping_events_per_sec", cml_ping, &ok);
    check_floor(*floor, "sweep3d_scenarios_per_sec", sweep3d, &ok);
  }

  if (const std::string rpath = cli.get("report", ""); !rpath.empty()) {
    obs::RunInfo info;
    info.name = "bench_des_perf";
    info.params = Json::object();
    info.params.set("quick", quick)
        .set("schedule_heavy_events", sched_total)
        .set("cancel_heavy_events", cancel_total)
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
