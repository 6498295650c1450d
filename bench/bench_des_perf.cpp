// Machine-readable DES performance harness (not a paper figure): measures
// the event-queue hot path that every paper-facing result flows through,
// and writes BENCH_DES.json so the repo carries a perf trajectory.
//
// Workloads:
//   * schedule-heavy  -- self-rescheduling event chains, no cancels
//                        (pure heap + pool throughput), measured on both
//                        the tombstone-heap Simulator and the legacy
//                        linear-scan ReferenceSimulator;
//   * cancel-heavy    -- 50% of events cancelled while pending, plus
//                        cancel-after-fire churn on every prior batch
//                        (the PR-3 watchdog/ReliableChannel pattern that
//                        made the old cancel list grow without bound).
//                        The reference engine runs a scaled-down batch
//                        count (it is O(events x cancels)) and rates are
//                        compared; the harness FAILS if the tombstone
//                        heap is not >= 5x faster or its pool grows;
//   * mailbox         -- coroutine producer/consumer ping through
//                        sim::Mailbox (the task/mailbox interop path);
//   * sweep3d-scale   -- end-to-end model::figure13_series scenarios/sec;
//   * partitioned-chains -- the multi-core path: 8 per-CU logical
//                        processes with model-like per-event compute and
//                        1/64 cross-partition traffic, run serially on
//                        sim::Simulator and on sim::ParallelSimulator at
//                        1/2/4 threads.  Event counts and per-partition
//                        checksums must agree exactly (the cheap echo of
//                        the des_diff_test bit-identity contract); the
//                        best parallel rate is floor-gated, and on >= 4
//                        hardware threads the full run additionally
//                        requires >= 2x the serial rate at 4 threads.
//
// The schedule-heavy workload also runs an *instrumented* variant (one
// obs::Counter increment per event, queue gauges snapshotted at the end)
// and reports the metrics overhead; the instrumented rate is held to the
// same checked-in floor, which is how CI enforces the "metrics cost < 5%
// on the hot path" budget (the floor already allows 20% of noise).
//
// Flags: --quick (CI smoke sizes), --out=BENCH_DES.json,
//        --floor=path (fail if any events/sec falls >20% below the
//        checked-in floor values), --report=PATH (obs run report).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "model/sweep_model.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sim/mailbox.hpp"
#include "sim/parallel_simulator.hpp"
#include "sim/reference_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
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

// --- mailbox: coroutine producer/consumer through sim::Mailbox. ---
sim::Task<void> mb_producer(sim::Simulator& s, sim::Mailbox<int>& box, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim::Delay{s, Duration::nanoseconds(1)};
    box.send(i);
  }
}

sim::Task<void> mb_consumer(sim::Mailbox<int>& box, int n, std::uint64_t& sum) {
  for (int i = 0; i < n; ++i) sum += static_cast<std::uint64_t>(co_await box.receive());
}

double mailbox_rate(int messages) {
  sim::Simulator s;
  sim::TaskRegistry reg(s);
  sim::Mailbox<int> box(s);
  std::uint64_t sum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  reg.spawn(mb_consumer(box, messages, sum));
  reg.spawn(mb_producer(s, box, messages));
  reg.drain();
  const double rate = static_cast<double>(s.events_run()) / seconds_since(t0);
  if (sum != static_cast<std::uint64_t>(messages) * (messages - 1) / 2) {
    std::cerr << "mailbox checksum mismatch\n";
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

// --- partitioned-chains: the multi-core workload.  P logical processes
// each run a self-rescheduling chain; every event burns a fixed splitmix
// spin (standing in for model math) and folds into a per-partition
// checksum; every 64th event ships a fire-and-forget cross message to the
// next partition.  All delays are pure functions of (partition, ordinal),
// so the serial run on sim::Simulator and the parallel runs at any thread
// count execute the *same* event set -- the final checksums must match
// exactly (per-partition chains are sequential in both engines and cross
// deliveries commute through XOR). ---
constexpr int kParChainWork = 40;  // splitmix rounds per event
constexpr std::int64_t kParLookaheadPs = 1'000'000;  // 1 us cross latency

std::uint64_t par_spin(std::uint64_t x) {
  std::uint64_t s = x;
  std::uint64_t acc = 0;
  for (int i = 0; i < kParChainWork; ++i) acc ^= splitmix64(s);
  return acc;
}

std::int64_t par_delay_ps(int partition, std::uint64_t ordinal) {
  std::uint64_t s = 0x9e3779b97f4a7c15ULL * (ordinal + 1) +
                    static_cast<std::uint64_t>(partition);
  return static_cast<std::int64_t>(1 + splitmix64(s) % 4096);
}

struct alignas(64) ParChainState {
  std::uint64_t armed = 0;
  std::uint64_t sink = 0;
};

struct ParChainResult {
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  std::vector<std::uint64_t> sinks;
  sim::ParallelSimStats stats;
};

ParChainResult parallel_chain_rate(int partitions, int threads,
                                   std::uint64_t quota_per_partition) {
  sim::PartitionGraph g(partitions);
  g.set_all_links(Duration::picoseconds(kParLookaheadPs));
  sim::ParallelSimulator sim(g, threads);
  std::vector<ParChainState> st(static_cast<std::size_t>(partitions));

  std::function<void(int)> fire = [&](int p) {
    ParChainState& s = st[static_cast<std::size_t>(p)];
    s.sink ^= par_spin(s.armed + static_cast<std::uint64_t>(p));
    if (s.armed >= quota_per_partition) return;
    const std::uint64_t n = s.armed++;
    sim.partition(p).schedule(Duration::picoseconds(par_delay_ps(p, n)),
                              [&fire, p] { fire(p); });
    if (partitions > 1 && (n & 63) == 0) {
      const int dst = (p + 1) % partitions;
      sim.partition(p).send(
          dst,
          Duration::picoseconds(kParLookaheadPs + par_delay_ps(p, n ^ 0xffff)),
          [&st, dst] {
            st[static_cast<std::size_t>(dst)].sink ^=
                par_spin(static_cast<std::uint64_t>(dst));
          });
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < partitions; ++p) {
    st[static_cast<std::size_t>(p)].armed = 1;
    sim.partition(p).schedule(Duration::picoseconds(par_delay_ps(p, 0)),
                              [&fire, p] { fire(p); });
  }
  sim.run();
  const double s = seconds_since(t0);

  ParChainResult r;
  r.events = sim.events_run();
  r.events_per_sec = static_cast<double>(r.events) / s;
  for (const auto& ps : st) r.sinks.push_back(ps.sink);
  r.stats = sim.stats();
  sim.export_metrics(obs::MetricsRegistry::global(),
                     "parsim." + std::to_string(threads) + "t");
  return r;
}

// The serial oracle: the identical event set on one sim::Simulator, with
// partition index reduced to a state index and cross sends expressed as
// plain schedules at the same absolute latency.
ParChainResult serial_chain_rate(int partitions,
                                 std::uint64_t quota_per_partition) {
  sim::Simulator sim;
  std::vector<ParChainState> st(static_cast<std::size_t>(partitions));

  std::function<void(int)> fire = [&](int p) {
    ParChainState& s = st[static_cast<std::size_t>(p)];
    s.sink ^= par_spin(s.armed + static_cast<std::uint64_t>(p));
    if (s.armed >= quota_per_partition) return;
    const std::uint64_t n = s.armed++;
    sim.schedule(Duration::picoseconds(par_delay_ps(p, n)),
                 [&fire, p] { fire(p); });
    if (partitions > 1 && (n & 63) == 0) {
      const int dst = (p + 1) % partitions;
      sim.schedule(
          Duration::picoseconds(kParLookaheadPs + par_delay_ps(p, n ^ 0xffff)),
          [&st, dst] {
            st[static_cast<std::size_t>(dst)].sink ^=
                par_spin(static_cast<std::uint64_t>(dst));
          });
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < partitions; ++p) {
    st[static_cast<std::size_t>(p)].armed = 1;
    sim.schedule(Duration::picoseconds(par_delay_ps(p, 0)),
                 [&fire, p] { fire(p); });
  }
  sim.run();
  const double s = seconds_since(t0);

  ParChainResult r;
  r.events = sim.events_run();
  r.events_per_sec = static_cast<double>(r.events) / s;
  for (const auto& ps : st) r.sinks.push_back(ps.sink);
  return r;
}

bool check_floor(const Json& floor, const char* key, double measured,
                 bool* ok) {
  const Json* f = floor.find(key);
  if (f == nullptr) return false;
  const double min_allowed = f->as_double() * 0.8;  // >20% regression fails
  if (measured < min_allowed) {
    std::cerr << "FLOOR REGRESSION: " << key << " = " << measured << " < "
              << min_allowed << " (floor " << f->as_double() << " - 20%)\n";
    *ok = false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const CliParser cli(argc, argv, {"quick", "out", "floor", "report"});
  const bool quick = cli.get_bool("quick", false);
  const std::string out_path = cli.get("out", "BENCH_DES.json");

  const std::uint64_t sched_total = quick ? 200'000 : 1'000'000;
  const std::uint64_t cancel_total = quick ? 200'000 : 1'000'000;
  // The reference engine is O(events x cancel-list) on this workload: a
  // full-size run would take minutes, so its rate is measured at a
  // smaller event count (the per-event rate only flatters it).
  const std::uint64_t ref_cancel_total = quick ? 20'000 : 50'000;
  const std::uint64_t batch = 1'000;
  const int mailbox_msgs = quick ? 50'000 : 200'000;
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
  const double mailbox = mailbox_rate(mailbox_msgs);
  int scenarios = 0;
  const double sweep3d = sweep3d_rate(counts, quick ? 1 : 3, &scenarios);

  const int par_parts = 8;
  const std::uint64_t par_quota = quick ? 25'000 : 100'000;
  const unsigned hw = std::thread::hardware_concurrency();
  const auto par_serial = serial_chain_rate(par_parts, par_quota);
  const auto par_1t = parallel_chain_rate(par_parts, 1, par_quota);
  const auto par_2t = parallel_chain_rate(par_parts, 2, par_quota);
  const auto par_4t = parallel_chain_rate(par_parts, 4, par_quota);
  for (const auto* pr : {&par_1t, &par_2t, &par_4t}) {
    if (pr->events != par_serial.events || pr->sinks != par_serial.sinks) {
      std::cerr << "FAIL: partitioned-chains diverged from the serial "
                   "oracle (events "
                << pr->events << " vs " << par_serial.events << ")\n";
      return 1;
    }
  }
  const double par_best = std::max(
      {par_1t.events_per_sec, par_2t.events_per_sec, par_4t.events_per_sec});
  const double par_speedup_4t =
      par_4t.events_per_sec / par_serial.events_per_sec;

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
  t.row().add("coroutine mailbox ping").add(mailbox_msgs).add(mailbox, 0).add("-");
  t.row().add("sweep3d scaling (scenarios/sec)").add(scenarios).add(sweep3d, 2)
      .add("-");
  t.row().add("partitioned-chains (serial oracle)").add(par_serial.events)
      .add(par_serial.events_per_sec, 0).add(1.0, 2);
  t.row().add("partitioned-chains (parallel, 1t)").add(par_1t.events)
      .add(par_1t.events_per_sec, 0)
      .add(par_1t.events_per_sec / par_serial.events_per_sec, 2);
  t.row().add("partitioned-chains (parallel, 2t)").add(par_2t.events)
      .add(par_2t.events_per_sec, 0)
      .add(par_2t.events_per_sec / par_serial.events_per_sec, 2);
  t.row().add("partitioned-chains (parallel, 4t)").add(par_4t.events)
      .add(par_4t.events_per_sec, 0).add(par_speedup_4t, 2);
  t.print(std::cout);
  std::cout << "partitioned-chains: " << par_parts << " partitions, "
            << par_4t.stats.windows << " windows, "
            << par_4t.stats.cross_messages << " cross messages, "
            << par_4t.stats.lookahead_stalls << " lookahead stalls, "
            << par_4t.stats.null_messages
            << " null messages (window-bound broadcasts); checksums match "
               "the serial oracle at 1/2/4 threads ("
            << hw << " hardware threads)\n";
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
  j.set("mailbox_messages", mailbox_msgs);
  j.set("mailbox_events_per_sec", mailbox);
  j.set("sweep3d_scenarios", scenarios);
  j.set("sweep3d_scenarios_per_sec", sweep3d);
  j.set("partitioned_chain_partitions", par_parts);
  j.set("partitioned_chain_events", par_serial.events);
  j.set("partitioned_chain_serial_events_per_sec", par_serial.events_per_sec);
  j.set("parallel_chain_events_per_sec_1t", par_1t.events_per_sec);
  j.set("parallel_chain_events_per_sec_2t", par_2t.events_per_sec);
  j.set("parallel_chain_events_per_sec_4t", par_4t.events_per_sec);
  j.set("parallel_chain_events_per_sec", par_best);
  j.set("parallel_chain_speedup_4t", par_speedup_4t);
  j.set("parallel_chain_windows", par_4t.stats.windows);
  j.set("parallel_chain_cross_messages", par_4t.stats.cross_messages);
  j.set("parallel_chain_lookahead_stalls", par_4t.stats.lookahead_stalls);
  j.set("parallel_chain_null_messages", par_4t.stats.null_messages);
  j.set("hardware_threads", static_cast<std::uint64_t>(hw));
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
  // The >= 2x scaling acceptance gate only means something on hardware
  // that can actually run 4 worker threads; CI smoke boxes and --quick
  // runs report the speedup but do not fail on it.
  if (!quick && hw >= 4 && par_speedup_4t < 2.0) {
    std::cerr << "FAIL: partitioned-chains 4-thread speedup "
              << format_double(par_speedup_4t, 2) << " < 2x serial ("
              << hw << " hardware threads)\n";
    ok = false;
  }
  if (cli.has("floor")) {
    const auto floor_text = read_file(cli.get("floor", ""));
    const Json floor = Json::parse(floor_text);
    check_floor(floor, "schedule_heavy_events_per_sec", sched_new, &ok);
    // The instrumented variant must clear the *same* floor: metrics that
    // cost more than the floor's 20% noise margin fail the smoke run.
    check_floor(floor, "schedule_heavy_events_per_sec", sched_instr, &ok);
    check_floor(floor, "cancel_heavy_events_per_sec",
                cancel_new.events_per_sec, &ok);
    check_floor(floor, "mailbox_events_per_sec", mailbox, &ok);
    check_floor(floor, "sweep3d_scenarios_per_sec", sweep3d, &ok);
    // The multi-core floor is gated on the *best* thread count so a
    // single-core CI box is held to the engine's overhead, not to a
    // parallel speedup it cannot produce.
    check_floor(floor, "parallel_chain_events_per_sec", par_best, &ok);
  }

  if (const std::string rpath = cli.get("report", ""); !rpath.empty()) {
    obs::RunInfo info;
    info.name = "bench_des_perf";
    info.params = Json::object();
    info.params.set("quick", quick)
        .set("schedule_heavy_events", sched_total)
        .set("cancel_heavy_events", cancel_total)
        .set("mailbox_messages", mailbox_msgs);
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
  return ok ? 0 : 2;
}
