#include "sweep_engine/zoo.hpp"

#include <algorithm>
#include <memory>

#include "comm/fabric.hpp"
#include "sweep_engine/studies.hpp"
#include "topo/degraded.hpp"
#include "topo/machines.hpp"
#include "util/expect.hpp"

namespace rr::engine {

namespace {

Json point_json(const fault::ResiliencePoint& p) {
  Json o = Json::object();
  o.set("nodes", p.nodes);
  o.set("fault_free_s", p.fault_free_s);
  o.set("system_mtbf_h", p.system_mtbf_h);
  o.set("checkpoint_s", p.checkpoint_s);
  o.set("interval_s", p.interval_s);
  o.set("analytic_s", p.analytic_s);
  o.set("simulated_s", p.simulated_s);
  o.set("mean_failures", p.mean_failures);
  o.set("efficiency", p.efficiency);
  return o;
}

/// Deterministic fault set for the audit row: a whole switch chassis
/// where the family has one (the fat tree), otherwise a mid-machine
/// router, plus one cut cable off node 0's crossbar.  Pure function of
/// the machine, so the audit numbers are reproducible.
void inject_audit_faults(const topo::Topology& t, topo::DegradedTopology& d) {
  if (t.switch_count() > 0) {
    d.fail_inter_cu_switch(0);
  } else {
    d.fail_crossbar(t.node_xbar(topo::NodeId{t.node_count() / 2}));
  }
  const int x0 = t.node_xbar(topo::NodeId{0});
  const auto& links = t.crossbar(x0).links;
  if (!links.empty()) d.fail_link(x0, links.front());
}

}  // namespace

std::vector<MachineStudy> cross_machine_study(
    SweepEngine& eng, const arch::SystemSpec& system,
    const std::vector<std::string>& machines, const ZooConfig& cfg) {
  std::vector<MachineStudy> out;
  out.reserve(machines.size());
  for (const std::string& name : machines) {
    RR_EXPECTS(topo::known_machine(name));
    const std::unique_ptr<topo::Topology> t =
        topo::make_machine(name, cfg.small);

    MachineStudy row;
    row.machine = name;
    row.family = t->family();
    row.nodes = t->node_count();
    row.crossbars = t->crossbar_count();

    row.hop_histogram = t->hop_histogram(topo::NodeId{0});
    row.average_hops = t->average_hops(topo::NodeId{0});
    row.max_hops = static_cast<int>(row.hop_histogram.size()) - 1;

    const comm::FabricModel fabric(*t);
    const std::vector<comm::LatencySweepPoint> lat =
        parallel_latency_sweep(eng, fabric, topo::NodeId{0});
    if (!lat.empty()) {
      double lo = lat.front().latency.us(), hi = lo, sum = 0.0;
      for (const comm::LatencySweepPoint& p : lat) {
        lo = std::min(lo, p.latency.us());
        hi = std::max(hi, p.latency.us());
        sum += p.latency.us();
      }
      row.latency_min_us = lo;
      row.latency_mean_us = sum / static_cast<double>(lat.size());
      row.latency_max_us = hi;
    }

    row.hpl =
        parallel_hpl_study(eng, system, *t, {row.nodes}, cfg.fault).front();
    row.sweep3d = parallel_sweep_study(eng, system, *t, {row.nodes},
                                       cfg.sweep_iterations, cfg.fault)
                      .front();

    topo::DegradedTopology d(*t);
    inject_audit_faults(*t, d);
    // Strides scaled to the machine so the audit touches a comparable
    // pair count (~16 x 64) at every size.
    const topo::RouteAudit audit =
        audit_routes(d, std::max(1, row.nodes / 16), std::max(1, row.nodes / 64));
    row.audit_pairs = audit.pairs_checked;
    row.audit_unreachable = audit.unreachable;
    row.audit_broken = audit.broken;
    row.audit_loops = audit.loops;
    row.audit_below_bfs_floor = audit.below_bfs_floor;
    row.audit_max_extra_hops = audit.max_extra_hops;
    row.audit_clean = audit.clean();

    out.push_back(std::move(row));
  }
  return out;
}

Json zoo_to_json(const std::vector<MachineStudy>& rows) {
  Json arr = Json::array();
  for (const MachineStudy& r : rows) {
    Json o = Json::object();
    o.set("machine", r.machine);
    o.set("family", r.family);
    o.set("nodes", r.nodes);
    o.set("crossbars", r.crossbars);
    Json hist = Json::array();
    for (int count : r.hop_histogram) hist.push_back(count);
    o.set("hop_histogram", std::move(hist));
    o.set("average_hops", r.average_hops);
    o.set("max_hops", r.max_hops);
    o.set("latency_min_us", r.latency_min_us);
    o.set("latency_mean_us", r.latency_mean_us);
    o.set("latency_max_us", r.latency_max_us);
    o.set("hpl", point_json(r.hpl));
    o.set("sweep3d", point_json(r.sweep3d));
    Json audit = Json::object();
    audit.set("pairs", r.audit_pairs);
    audit.set("unreachable", r.audit_unreachable);
    audit.set("broken", r.audit_broken);
    audit.set("loops", r.audit_loops);
    audit.set("below_bfs_floor", r.audit_below_bfs_floor);
    audit.set("max_extra_hops", r.audit_max_extra_hops);
    audit.set("clean", r.audit_clean);
    o.set("audit", std::move(audit));
    arr.push_back(std::move(o));
  }
  return arr;
}

}  // namespace rr::engine
