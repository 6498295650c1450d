#include "fault/failure_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"
#include "util/rng.hpp"

namespace rr::fault {

namespace {

constexpr double kSecondsPerHour = 3600.0;

/// One exponential inter-arrival with mean `mtbf_h`, in hours.
double draw_interarrival_h(Rng& rng, double mtbf_h) {
  const double u = rng.next_double();  // [0, 1)
  return mtbf_h * -std::log1p(-u);
}

}  // namespace

const char* component_name(Component c) {
  switch (c) {
    case Component::kNode: return "triblade node";
    case Component::kIbLink: return "IB cable";
    case Component::kCrossbar: return "crossbar";
    case Component::kInterCuSwitch: return "inter-CU switch";
  }
  return "?";
}

ComponentCounts census(const topo::FatTree& t) {
  ComponentCounts c;
  c.nodes = t.node_count();
  // Switch-chassis members (the fat tree's inter-CU L1/mid/L3 crossbars)
  // fail with their chassis; everything else fails individually.
  c.switches = t.switch_count();
  int in_switches = 0;
  for (int sw = 0; sw < t.switch_count(); ++sw)
    in_switches += static_cast<int>(t.switch_members(sw).size());
  c.crossbars = t.crossbar_count() - in_switches;
  // One cable per adjacency with a < b: cable_list's pairs, counted in one
  // pass with no list and no sort (a scenario prices its MTBF from this).
  for (int a = 0; a < t.crossbar_count(); ++a)
    for (int b : t.crossbar(a).links)
      if (a < b) ++c.links;
  return c;
}

ComponentCounts census_for_nodes(const topo::FatTree& full, int nodes) {
  RR_EXPECTS(nodes >= 1 && nodes <= full.node_count());
  const ComponentCounts whole = census(full);
  const double share =
      static_cast<double>(nodes) / static_cast<double>(full.node_count());
  // An empty class stays empty; any populated class keeps at least one
  // member.
  const auto scaled = [share](int count) {
    if (count == 0) return 0;
    return std::max(1, static_cast<int>(std::ceil(count * share)));
  };
  ComponentCounts c;
  c.nodes = nodes;
  c.links = scaled(whole.links);
  c.crossbars = scaled(whole.crossbars);
  c.switches = scaled(whole.switches);
  return c;
}

std::vector<std::pair<int, int>> cable_list(const topo::FatTree& t) {
  std::vector<std::pair<int, int>> cables;
  for (int a = 0; a < t.crossbar_count(); ++a)
    for (int b : t.crossbar(a).links)
      if (a < b) cables.emplace_back(a, b);
  std::sort(cables.begin(), cables.end());
  return cables;
}

double system_mtbf_h(const ComponentCounts& counts, const ReliabilityParams& p) {
  RR_EXPECTS(p.node_mtbf_h > 0 && p.link_mtbf_h > 0);
  RR_EXPECTS(p.crossbar_mtbf_h > 0 && p.switch_mtbf_h > 0);
  const double rate = counts.nodes / p.node_mtbf_h +
                      counts.links / p.link_mtbf_h +
                      counts.crossbars / p.crossbar_mtbf_h +
                      counts.switches / p.switch_mtbf_h;
  RR_EXPECTS(rate > 0.0);
  return 1.0 / rate;
}

std::vector<Duration> generate_system_schedule(double mtbf_h, Duration horizon,
                                               std::uint64_t seed) {
  RR_EXPECTS(mtbf_h > 0.0);
  RR_EXPECTS(horizon > Duration::zero());
  std::uint64_t s = seed;
  Rng rng{splitmix64(s)};
  std::vector<Duration> out;
  const double horizon_h = horizon.sec() / kSecondsPerHour;
  double t_h = 0.0;
  while (true) {
    t_h += draw_interarrival_h(rng, mtbf_h);
    if (t_h >= horizon_h) break;
    out.push_back(Duration::seconds(t_h * kSecondsPerHour));
  }
  return out;
}

Scenario& Scenario::fail_node(Duration at, int node) {
  events_.push_back(FailureEvent{at, Component::kNode, node});
  return *this;
}
Scenario& Scenario::fail_link(Duration at, int cable_index) {
  events_.push_back(FailureEvent{at, Component::kIbLink, cable_index});
  return *this;
}
Scenario& Scenario::fail_crossbar(Duration at, int xbar_id) {
  events_.push_back(FailureEvent{at, Component::kCrossbar, xbar_id});
  return *this;
}
Scenario& Scenario::fail_inter_cu_switch(Duration at, int sw) {
  events_.push_back(FailureEvent{at, Component::kInterCuSwitch, sw});
  return *this;
}
std::vector<FailureEvent> Scenario::build() const {
  std::vector<FailureEvent> sorted = events_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace rr::fault
