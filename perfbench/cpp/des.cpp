// des-deep and des-wide: model::simulate_iteration on the 17-CU fat tree.
//
// The untraced run times whole iterations, each scaled to nominal host
// speed (HostSpeed in common.hpp).  The traced run pairs each
// untraced iteration with one run of the benchmark's instrumented replica
// of the rank program (the replica guard ties the two together), and
// replays the workload's own legs through ChannelModel::one_way and
// Topology::hop_count to price those two calls per invocation.
#include "des.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <utility>
#include <vector>

#include "cml/cml.hpp"
#include "comm/channel.hpp"
#include "common.hpp"
#include "model/sim_validation.hpp"
#include "obs/prof.hpp"
#include "sim/task.hpp"
#include "sweep/quadrature.hpp"
#include "topo/fat_tree.hpp"

namespace rr::perfbench {
namespace {

constexpr int kRanksPerCell = 8;
constexpr int kRanksPerNode = 32;

// simulate_iteration's tag layout.
int message_tag(int octant, int block, int axis) {
  return (octant * 4096 + block) * 2 + axis;
}

std::size_t surface_doubles(const DesShape& s, int axis) {
  return static_cast<std::size_t>(axis == 0 ? s.w.jt : s.w.it) * s.w.mk * s.w.angles;
}

double ps_to_s(std::int64_t ps) { return static_cast<double>(ps) * 1e-12; }

/// Calls f(src, dst, axis) for every CML message of one iteration, in the
/// order the schedule issues them (octant, k-block, rank).
template <typename F>
void for_each_message(const DesShape& s, F&& f) {
  for (int oc = 0; oc < sweep::kOctants; ++oc) {
    const sweep::Octant o = sweep::octant(oc);
    for (int b = 0; b < s.blocks(); ++b) {
      for (int r = 0; r < s.ranks(); ++r) {
        const int pi = r % s.px;
        const int pj = r / s.px;
        const int dn_x = pi + o.sx;
        const int dn_y = pj + o.sy;
        if (dn_x >= 0 && dn_x < s.px) f(r, pj * s.px + dn_x, 0);
        if (dn_y >= 0 && dn_y < s.py) f(r, dn_y * s.px + pi, 1);
      }
    }
  }
}

/// Simulated SPE<->PPE local-leg time of one message: on a one-node world,
/// rank 0 -> rank 8 (the next Cell) costs two local legs plus two
/// uncontended DaCS legs, and SimNetwork prices DaCS legs publicly.
Duration probe_local_leg(const topo::Topology& tree, std::size_t doubles) {
  sim::Simulator simulator;
  cml::CmlConfig config;
  config.nodes = 1;
  cml::CmlWorld world(simulator, tree, config);
  const auto program = [&](cml::CmlContext ctx) -> sim::Task<void> {
    if (ctx.rank() == 0)
      co_await ctx.send(kRanksPerCell, 0, std::vector<double>(doubles, 1.0));
    if (ctx.rank() == kRanksPerCell) co_await ctx.recv(0, 0);
  };
  world.run(program);
  const Duration dacs =
      world.network().dacs_time(cml::message_bytes(std::vector<double>(doubles, 1.0)));
  const Duration total = simulator.now() - TimePoint::origin();
  return Duration::picoseconds((total - dacs - dacs).ps() / 2);
}

}  // namespace

DesShape des_shape(const std::string& workload) {
  DesShape s;
  s.w.it = 5;
  s.w.jt = 5;
  s.w.mk = 20;
  if (workload == "des-wide") {
    // 16,384 ranks on 512 triblades; kt is shortened only to keep the
    // iteration short.
    s.px = 128;
    s.py = 128;
    s.w.kt = 40;
  } else {
    // des-deep: 2,048 ranks on 64 triblades, the full 5x5x400 column.
    s.px = 64;
    s.py = 32;
    s.w.kt = 400;
  }
  return s;
}

std::uint64_t closed_form_msgs(const DesShape& s) {
  const auto faces = static_cast<std::uint64_t>((s.px - 1) * s.py + s.px * (s.py - 1));
  return 8ull * static_cast<std::uint64_t>(s.blocks()) * faces;
}

LegCounts count_legs(const DesShape& s) {
  LegCounts c;
  for_each_message(s, [&](int src, int dst, int) {
    if (src / kRanksPerCell == dst / kRanksPerCell) {
      ++c.eib;
      return;
    }
    c.dacs += 2;
    if (src / kRanksPerNode != dst / kRanksPerNode) ++c.ib;
  });
  return c;
}

ReplicaStats run_replica(const DesShape& s, const model::SweepCompute& compute,
                         const topo::Topology& topo) {
  const int ranks = s.ranks();
  obs::WallTrace& spans = obs::WallTrace::global();
  ReplicaStats out;

  const TimePoint w0 = obs::wall_now();
  sim::Simulator simulator;
  cml::CmlConfig config;
  config.nodes = (ranks + kRanksPerNode - 1) / kRanksPerNode;
  cml::CmlWorld world(simulator, topo, config);
  const TimePoint w1 = obs::wall_now();
  spans.record("replica/cml_world", w0, w1);

  const Duration block_compute =
      compute.per_cell_angle *
      (static_cast<std::int64_t>(s.w.it) * s.w.jt * s.w.mk * s.w.angles);
  const std::size_t x_doubles = surface_doubles(s, 0);
  const std::size_t y_doubles = surface_doubles(s, 1);

  struct RankClock {
    std::int64_t compute = 0;
    std::int64_t recv = 0;
    std::int64_t send = 0;
  };
  std::vector<RankClock> clocks(static_cast<std::size_t>(ranks));
  int started = 0;
  TimePoint launched = w1;

  // simulate_iteration's rank program, await for await, with the
  // simulated clock read around each await.
  const auto program = [&](cml::CmlContext ctx) -> sim::Task<void> {
    if (++started == world.size()) launched = obs::wall_now();
    const int r = ctx.rank();
    if (r >= ranks) co_return;
    RankClock& clock = clocks[static_cast<std::size_t>(r)];
    const int pi = r % s.px;
    const int pj = r / s.px;
    for (int oc = 0; oc < sweep::kOctants; ++oc) {
      const sweep::Octant o = sweep::octant(oc);
      const int up_x = pi - o.sx;
      const int up_y = pj - o.sy;
      const int dn_x = pi + o.sx;
      const int dn_y = pj + o.sy;
      for (int b = 0; b < s.blocks(); ++b) {
        if (up_x >= 0 && up_x < s.px) {
          const TimePoint t = simulator.now();
          co_await ctx.recv(pj * s.px + up_x, message_tag(oc, b, 0));
          clock.recv += (simulator.now() - t).ps();
        }
        if (up_y >= 0 && up_y < s.py) {
          const TimePoint t = simulator.now();
          co_await ctx.recv(up_y * s.px + pi, message_tag(oc, b, 1));
          clock.recv += (simulator.now() - t).ps();
        }
        {
          const TimePoint t = simulator.now();
          co_await sim::Delay{simulator, block_compute};
          clock.compute += (simulator.now() - t).ps();
        }
        if (dn_x >= 0 && dn_x < s.px) {
          std::vector<double> surface(x_doubles, 1.0);
          const TimePoint t = simulator.now();
          co_await ctx.send(pj * s.px + dn_x, message_tag(oc, b, 0), std::move(surface));
          clock.send += (simulator.now() - t).ps();
          ++out.sends;
        }
        if (dn_y >= 0 && dn_y < s.py) {
          std::vector<double> surface(y_doubles, 1.0);
          const TimePoint t = simulator.now();
          co_await ctx.send(dn_y * s.px + pi, message_tag(oc, b, 1), std::move(surface));
          clock.send += (simulator.now() - t).ps();
          ++out.sends;
        }
      }
    }
  };

  const TimePoint r0 = obs::wall_now();
  out.done = world.run(program);
  const TimePoint r1 = obs::wall_now();
  spans.record("replica/launch", r0, launched);
  spans.record("replica/event_loop", launched, r1);

  out.world_size = static_cast<std::size_t>(world.size());
  out.total_ps = (simulator.now() - TimePoint::origin()).ps();
  out.events = simulator.events_run();
  out.max_pending = simulator.max_pending();
  out.world_s = (w1 - w0).sec();
  out.launch_s = (launched - r0).sec();
  out.loop_s = (r1 - launched).sec();

  comm::SimNetwork& net = world.network();
  out.legs = net.messages_sent();
  out.bytes = net.bytes_sent();
  const double iteration_ps = std::max<double>(1.0, static_cast<double>(out.total_ps));
  for (int node = 0; node < config.nodes; ++node) {
    const Duration ib = net.ib_busy(node);
    out.ib_busy_sim_s += ib.sec();
    out.ib_util_max = std::max(out.ib_util_max, static_cast<double>(ib.ps()) / iteration_ps);
    for (int cell = 0; cell < config.cells_per_node; ++cell) {
      const Duration pcie = net.pcie_busy(node, cell);
      out.pcie_busy_sim_s += pcie.sec();
      out.pcie_util_max =
          std::max(out.pcie_util_max, static_cast<double>(pcie.ps()) / iteration_ps);
    }
  }
  out.eib_busy_sim_s = net.eib_busy().sec();

  RankClock sum;
  for (const RankClock& c : clocks) {
    sum.compute += c.compute;
    sum.recv += c.recv;
    sum.send += c.send;
  }
  out.compute_sim_s = ps_to_s(sum.compute) / ranks;
  out.recv_wait_sim_s = ps_to_s(sum.recv) / ranks;
  out.send_sim_s = ps_to_s(sum.send) / ranks;
  return out;
}

void run_des(const Options& o, Result& r) {
  const DesShape s = des_shape(o.workload);
  const std::uint64_t msgs = closed_form_msgs(s);
  const LegCounts legs = count_legs(s);

  // Set-up: the 17-CU fat tree and the SPU-pipeline-derived SPE rate.
  HostSpeed speed;
  const topo::FatTree tree = topo::FatTree::roadrunner();
  const model::SweepCompute spe = model::spe_compute(arch::CellVariant::kPowerXCell8i);
  std::optional<topo::FatTree> scratch_tree;
  model::SweepCompute scratch_spe;
  std::vector<double> tree_build_s;
  SetupClock setup(speed, [&] {
    scratch_tree.reset();  // free the last build first: every repetition allocates alike
    const double t0 = wall_s();
    scratch_tree.emplace(topo::FatTree::roadrunner());
    tree_build_s.push_back(wall_s() - t0);
    scratch_spe = model::spe_compute(arch::CellVariant::kPowerXCell8i);
  });
  setup.tick();

  // model::model_vs_des_gap's closed form, without its second DES run.
  const model::CommMode mode = s.ranks() <= 8 ? model::CommMode::kIntraSocketEib
                                              : model::CommMode::kMeasuredEarly;
  const double model_s = model::estimate_iteration(s.w, s.px, s.py, spe, mode).total.sec();

  std::vector<double> iter_s, scaled_s;
  std::int64_t first_ps = -1;
  const auto iteration = [&]() -> model::SimulatedIteration {
    obs::ProfSpan span("des/simulate_iteration");
    const model::SimulatedIteration it =
        model::simulate_iteration(s.w, s.px, s.py, spe, tree);
    iter_s.push_back(span.stop() * 1e-6);
    scaled_s.push_back(speed.scale(iter_s.back()));
    setup.tick();
    if (first_ps < 0) first_ps = it.total.ps();
    r.op(it.messages == legs.total() && it.total.ps() == first_ps &&
             it.ranks == static_cast<std::size_t>(s.ranks()),
         "iteration " + std::to_string(iter_s.size()) + ": " +
             std::to_string(it.messages) + " legs (rule: " +
             std::to_string(legs.total()) + "), " + std::to_string(it.total.ps()) +
             " ps simulated (first repeat: " + std::to_string(first_ps) + " ps)");
    return it;
  };

  std::cout << "  shape: " << s.px << "x" << s.py << " ranks on "
            << (s.ranks() + kRanksPerNode - 1) / kRanksPerNode << " triblades, "
            << s.w.it << "x" << s.w.jt << "x" << s.w.kt << " cells per SPE, MK=" << s.w.mk
            << " (" << s.blocks() << " k-blocks), early-software PCIe\n";
  if (!o.trace) {
    for (RunClock clock(o.seconds); clock.more();) iteration();
    const double des_s = ps_to_s(first_ps);
    const double gap = std::abs(des_s - model_s) / des_s;
    const Timing t = summarize(scaled_s);
    r.metrics["setup_s"] = setup.median_s();
    r.metrics["job_s"] = t.median;
    r.metrics["peak_rss_mb"] = peak_rss_mb();
    r.metrics["model_err"] = gap;
    r.metrics["model_err_max"] = gap;
    report(std::cout, "setup_s", fixed(setup.median_s(), 6) + " s",
           "median set-up at nominal host speed: fat tree + SPU rate tables");
    report(std::cout, "iter_s", describe(t, "s"), "at nominal host speed, reported as job_s");
    report(std::cout, "iter_s (raw)", describe(summarize(iter_s), "s"),
           "host slowdown median " + fixed(median(speed.slowdowns()), 3));
    report(std::cout, "peak_rss_mb", fixed(r.metrics["peak_rss_mb"], 1) + " MB");
    report(std::cout, "des_model_gap", fixed(gap, 4) + " ratio",
           "DES " + fixed(des_s, 5) + " s vs closed form " + fixed(model_s, 5) +
               " s; reported as model_err and model_err_max");
    report(std::cout, "legs", std::to_string(legs.total()),
           std::to_string(legs.eib) + " EIB + " + std::to_string(legs.dacs) + " DaCS + " +
               std::to_string(legs.ib) + " IB");
    report(std::cout, "cml_msgs", std::to_string(msgs), "closed form");
    return;
  }

  // Traced run.  Link service time plus the local SPE<->PPE legs is what a
  // send costs without queueing; the rest of cml.send_sim_s is queueing.
  const Duration local_leg[2] = {probe_local_leg(tree, surface_doubles(s, 0)),
                                 probe_local_leg(tree, surface_doubles(s, 1))};
  std::int64_t local_legs_ps = 0;
  // Replay plans, built once and untimed: every leg (0 EIB, 1 DaCS, 2 the
  // MPI part of an IB leg) and the node pair of every inter-node leg.
  struct Leg {
    std::uint8_t kind;
    std::uint8_t axis;
  };
  std::vector<Leg> plan;
  std::vector<std::pair<int, int>> ib_pairs;
  for_each_message(s, [&](int src, int dst, int axis) {
    const auto ax = static_cast<std::uint8_t>(axis);
    if (src / kRanksPerCell == dst / kRanksPerCell) {
      plan.push_back({0, ax});
      return;
    }
    local_legs_ps += 2 * local_leg[axis].ps();
    plan.push_back({1, ax});
    plan.push_back({1, ax});
    if (src / kRanksPerNode != dst / kRanksPerNode) {
      plan.push_back({2, ax});
      ib_pairs.emplace_back(src / kRanksPerNode, dst / kRanksPerNode);
    }
  });
  const comm::ChannelModel channels[3] = {comm::ChannelModel{comm::cml_eib()},
                                          comm::ChannelModel{comm::dacs_pcie()},
                                          comm::ChannelModel{comm::mpi_infiniband(true)}};
  const DataSize bytes[2] = {
      cml::message_bytes(std::vector<double>(surface_doubles(s, 0), 1.0)),
      cml::message_bytes(std::vector<double>(surface_doubles(s, 1), 1.0))};
  std::int64_t sink = 0;
  // SimNetwork calls one_way twice per leg (busy-time accounting and the
  // delay itself), so the replay does too.
  const auto replay_channel_ns = [&] {
    obs::ProfSpan span("replay/channel_one_way");
    for (const Leg& l : plan) {
      sink += channels[l.kind].one_way(bytes[l.axis]).ps();
      sink += channels[l.kind].one_way(bytes[l.axis]).ps();
    }
    return span.stop() * 1e3 / (2.0 * static_cast<double>(plan.size()));
  };
  const auto replay_hop_count_ns = [&] {
    obs::ProfSpan span("replay/hop_count");
    for (const auto& [a, b] : ib_pairs) sink += tree.hop_count(topo::NodeId{a}, topo::NodeId{b});
    return span.stop() * 1e3 / static_cast<double>(std::max<std::size_t>(1, ib_pairs.size()));
  };

  std::vector<double> world_s, launch_s, loop_s, ns_per_event, channel_ns, hop_ns, traced_s;
  ReplicaStats rep;
  for (RunClock clock(o.seconds); clock.more();) {
    const model::SimulatedIteration it = iteration();
    rep = run_replica(s, spe, tree);
    r.op(rep.total_ps == it.total.ps() && rep.sends == msgs && rep.legs == it.messages &&
             rep.done == rep.world_size,
         "replica guard: " + std::to_string(rep.total_ps) + " ps vs " +
             std::to_string(it.total.ps()) + ", " + std::to_string(rep.sends) +
             " sends vs " + std::to_string(msgs) + ", " + std::to_string(rep.legs) +
             " legs vs " + std::to_string(it.messages) + ", " + std::to_string(rep.done) +
             "/" + std::to_string(rep.world_size) + " ranks finished");
    world_s.push_back(rep.world_s);
    launch_s.push_back(rep.launch_s);
    loop_s.push_back(rep.loop_s);
    traced_s.push_back(rep.world_s + rep.launch_s + rep.loop_s);
    ns_per_event.push_back(rep.loop_s * 1e9 /
                           static_cast<double>(std::max<std::uint64_t>(1, rep.events)));
    channel_ns.push_back(replay_channel_ns());
    hop_ns.push_back(replay_hop_count_ns());
  }
  r.check(sink > 0, "leg replays priced nothing");

  const double iter_med = median(iter_s);
  const double link_service_s = rep.pcie_busy_sim_s + rep.ib_busy_sim_s + rep.eib_busy_sim_s;
  auto& m = r.metrics;
  m["topo.build_s"] = median(tree_build_s);
  m["sim.loop_s"] = median(loop_s);
  m["sim.events"] = static_cast<double>(rep.events);
  m["sim.ns_per_event"] = median(ns_per_event);
  m["sim.max_pending"] = static_cast<double>(rep.max_pending);
  m["cml.world_s"] = median(world_s);
  m["cml.launch_s"] = median(launch_s);
  m["cml.msgs"] = static_cast<double>(rep.sends);
  m["cml.recv_wait_sim_s"] = rep.recv_wait_sim_s;
  m["cml.send_sim_s"] = rep.send_sim_s;
  m["model.compute_sim_s"] = rep.compute_sim_s;
  m["comm.legs"] = static_cast<double>(rep.legs);
  m["comm.bytes"] = static_cast<double>(rep.bytes);
  m["comm.pcie_busy_sim_s"] = rep.pcie_busy_sim_s;
  m["comm.ib_busy_sim_s"] = rep.ib_busy_sim_s;
  m["comm.eib_busy_sim_s"] = rep.eib_busy_sim_s;
  m["comm.pcie_util_max"] = rep.pcie_util_max;
  m["comm.ib_util_max"] = rep.ib_util_max;
  m["comm.send_queue_sim_s"] =
      rep.send_sim_s - (link_service_s + ps_to_s(local_legs_ps)) / s.ranks();
  m["comm.channel_ns"] = median(channel_ns);
  m["topo.hop_count_ns"] = median(hop_ns);
  // ib_time() calls hop_count twice per IB leg: the most a hop table saves.
  m["topo.route_share"] =
      2.0 * static_cast<double>(legs.ib) * median(hop_ns) * 1e-9 / iter_med;
  m["trace.job_s"] = median(traced_s);
  m["trace.overhead_s"] = m["trace.job_s"] - iter_med;
  m["host.slowdown"] = median(speed.slowdowns());

  report(std::cout, "iter_s (untraced)", describe(summarize(iter_s), "s"));
  report(std::cout, "replica iter_s (traced)", describe(summarize(traced_s), "s"),
         "overhead " + fixed(m["trace.overhead_s"], 4) + " s");
  report(std::cout, "cml.world_s / launch_s", fixed(m["cml.world_s"], 4) + " / " +
                                                  fixed(m["cml.launch_s"], 4) + " s");
  report(std::cout, "sim.loop_s", fixed(m["sim.loop_s"], 4) + " s",
         std::to_string(rep.events) + " events, " + fixed(m["sim.ns_per_event"], 1) +
             " ns/event, max pending " + std::to_string(rep.max_pending));
  report(std::cout, "simulated split per rank",
         fixed(rep.compute_sim_s, 5) + " compute + " + fixed(rep.recv_wait_sim_s, 5) +
             " recv wait + " + fixed(rep.send_sim_s, 5) + " send s",
         "iteration " + fixed(ps_to_s(rep.total_ps), 5) + " s");
  report(std::cout, "send queueing per rank", fixed(m["comm.send_queue_sim_s"], 5) + " s",
         "send minus link service and local legs");
  report(std::cout, "link busy (sum)",
         fixed(rep.pcie_busy_sim_s, 4) + " PCIe + " + fixed(rep.ib_busy_sim_s, 4) + " IB + " +
             fixed(rep.eib_busy_sim_s, 4) + " EIB s",
         "max util PCIe " + fixed(rep.pcie_util_max, 3) + ", IB " +
             fixed(rep.ib_util_max, 3));
  report(std::cout, "replays", fixed(m["comm.channel_ns"], 1) + " ns/one_way, " +
                                   fixed(m["topo.hop_count_ns"], 1) + " ns/hop_count",
         "route share " + fixed(m["topo.route_share"], 4) + " of iter_s");
}

}  // namespace rr::perfbench
