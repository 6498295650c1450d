// MTBF-driven failure schedules for the modeled machine (extension; the
// paper keeps 3,060 hybrid nodes alive for a ~2 h LINPACK run but never
// says how often they die -- contemporary petascale designs such as
// BlueGene/L treated MTBF as a first-order architectural constraint).
//
// Every component class (triblade node, IB cable, crossbar, inter-CU
// switch) fails as a memoryless exponential process with its own MTBF.
// Their superposition is one Poisson stream at the aggregate rate, so a
// study draws system-level failure times from a single SplitMix64-seeded
// stream, bitwise-reproducible for a given seed.
//
// MTBFs are double hours, not Duration: a 5-year MTBF overflows the
// int64 picosecond grid.  Event times inside a run horizon fit easily.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "topo/topology.hpp"
#include "util/units.hpp"

namespace rr::fault {

enum class Component : std::uint8_t { kNode, kIbLink, kCrossbar, kInterCuSwitch };
const char* component_name(Component c);

/// Per-class reliability parameters (MTBF per *component*, in hours).
/// Defaults are era-plausible: nodes dominate the failure budget, cables
/// and crossbars are an order quieter, the eight inter-CU ISR 9288s share
/// chassis/power/management and fail as units.
struct ReliabilityParams {
  double node_mtbf_h = 5.0 * 8760.0;        ///< ~5 years per triblade
  double link_mtbf_h = 120.0 * 8760.0;      ///< per IB cable
  double crossbar_mtbf_h = 250.0 * 8760.0;  ///< per 24-port crossbar
  double switch_mtbf_h = 25.0 * 8760.0;     ///< per inter-CU ISR 9288
};

struct ComponentCounts {
  int nodes = 0;
  int links = 0;      ///< crossbar-to-crossbar cables
  int crossbars = 0;  ///< CU-switch crossbars (inter-CU ones fail as switches)
  int switches = 0;   ///< inter-CU ISR 9288s
};

/// Count the topology's failable components.  Inter-CU crossbars are
/// folded into their owning switch (they fail together), so `crossbars`
/// counts only the CU-level ones.
ComponentCounts census(const topo::Topology& t);

/// Pro-rated census for a partial machine of `nodes` triblades (used by
/// the 1 -> 3,060 scaling studies).
ComponentCounts census_for_nodes(const topo::Topology& full, int nodes);

/// All cables of the fabric as sorted (a, b) crossbar-id pairs; the
/// kIbLink event index points into this list.
std::vector<std::pair<int, int>> cable_list(const topo::Topology& t);

/// Aggregate failure rate of the fleet => system MTBF in hours.
double system_mtbf_h(const ComponentCounts& counts, const ReliabilityParams& p);

struct FailureEvent {
  Duration at;          ///< since run start
  Component component{};
  int index = 0;        ///< NodeId.v / cable index / crossbar id / switch id

  friend constexpr auto operator<=>(const FailureEvent&, const FailureEvent&) = default;
};

/// System-level failure times in [0, horizon): the superposition of all
/// exponential component processes collapsed into one Poisson stream with
/// the aggregate rate (mean inter-arrival `mtbf_h`, see system_mtbf_h)
/// -- what the Monte-Carlo studies use.
std::vector<Duration> generate_system_schedule(double mtbf_h, Duration horizon,
                                               std::uint64_t seed);

/// Scripted, reproducible injections for tests and demos.
class Scenario {
 public:
  Scenario& fail_node(Duration at, int node);
  Scenario& fail_link(Duration at, int cable_index);
  Scenario& fail_crossbar(Duration at, int xbar_id);
  Scenario& fail_inter_cu_switch(Duration at, int sw);

  /// The scripted events, time-sorted.
  std::vector<FailureEvent> build() const;

 private:
  std::vector<FailureEvent> events_;
};

}  // namespace rr::fault
