// Explicit model of the Roadrunner interconnect (Sections II.B-C).
//
// Each Compute Unit (CU) contains one Voltaire ISR 9288 switch whose 36
// 24-port crossbars form a two-level full fat tree: 24 lower crossbars
// (8 compute/IO nodes + 12 intra-CU channels + 4 inter-CU channels each)
// and 12 upper crossbars.  Eight more ISR 9288 switches interconnect the
// 17 CUs in a 2:1 reduced fat tree: within each inter-CU switch, 12
// first-level crossbars serve CUs 1-12, 12 third-level crossbars serve
// CUs 13-17, and 12 middle crossbars join the two sides.
//
// Routing is deterministic and destination-indexed (InfiniBand-style
// up*/down* with one path per destination): a message enters the inter-CU
// fabric only through the lower crossbar whose index matches the
// destination's lower crossbar.  This is what produces the paper's Table I
// hop classes (3/5/5/7) -- shortest-path routing would collapse the 7-hop
// class (see DESIGN.md §4).  The contract every consumer (comm/fabric,
// topo/degraded, fault, sweep_engine, the DES) relies on:
//
//   * a route is the sequence of crossbar ids a message traverses,
//     starting at the source's own crossbar; empty for src == dst
//   * hop_count = route length, so hop_count(n, n) == 0
//   * hop_histogram(src) covers every node including self, so
//     histogram[0] == 1 and average_hops is the mean "including self"
//     (the paper's Table I convention, average 5.38)
//   * routing is deterministic: repeated calls return the same route
//
// A FatTree declares no special members: it moves without copying its
// crossbar graph (topo_test pins that).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "topo/topology.hpp"
#include "util/expect.hpp"

namespace rr::topo {

/// Where a compute node attaches within its CU.
struct Attachment {
  int cu = -1;
  int lower_xbar = -1;  ///< 0..23 within the CU
  int port = -1;        ///< 0..7 on the crossbar
};

/// Structural parameters; defaults are the full Roadrunner build.
struct FatTreeParams {
  int cu_count = 17;
  int inter_cu_switches = 8;
  int lower_xbars_per_cu = 24;
  int upper_xbars_per_cu = 12;
  int uplinks_per_lower_xbar = 4;
  int first_level_cus = 12;  ///< CUs beyond this attach to the L3 level
  int nodes_per_lower_xbar = 8;
  int compute_nodes_per_cu = 180;  ///< 22 full crossbars + 4 on the shared one
  int io_nodes_per_cu = 12;        ///< 4 on the shared crossbar + 8 on the last
  int crossbar_ports = 24;         ///< Voltaire ISR 9288 internal crossbars
};

class FatTree {
 public:
  /// Build the full 17-CU Roadrunner fabric.
  static FatTree roadrunner();
  /// Build a custom configuration (used by tests and what-if studies).
  /// The wiring invariants (switch count divisible by the uplink fan-out,
  /// inter-CU level size matching the lower-crossbar index space) are
  /// checked here.
  static FatTree build(const FatTreeParams& params);

  int cu_count() const { return params_.cu_count; }
  const FatTreeParams& params() const { return params_; }

  int node_count() const { return static_cast<int>(node_xbar_.size()); }
  int crossbar_count() const { return static_cast<int>(xbars_.size()); }

  const Crossbar& crossbar(int id) const {
    RR_EXPECTS(id >= 0 && id < crossbar_count());
    return xbars_[id];
  }

  /// The crossbar a compute node attaches to.
  int node_xbar(NodeId n) const {
    RR_EXPECTS(n.v >= 0 && n.v < node_count());
    return node_xbar_[n.v];
  }

  const Attachment& attachment(NodeId n) const {
    RR_EXPECTS(n.v >= 0 && n.v < node_count());
    return attachments_[n.v];
  }

  /// Crossbar ids for the levels (for tests / inspection).
  int cu_lower_id(int cu, int j) const;
  int cu_upper_id(int cu, int u) const;
  int l1_id(int sw, int x) const;
  int mid_id(int sw, int m) const;
  int l3_id(int sw, int y) const;

  /// The deterministic route: the sequence of crossbars a message from
  /// `src` to `dst` traverses.  Empty for src == dst.
  std::vector<int> route(NodeId src, NodeId dst) const;
  /// Number of crossbar hops on the deterministic route (Table I metric):
  /// the length of route(src, dst), counted along the same walk without
  /// building the vector, because every IB leg of the DES asks.  Zero for
  /// src == dst.
  int hop_count(NodeId src, NodeId dst) const;

  /// Up*/down* rerouting around failures: at each decision point of the
  /// healthy route (intra-CU upper crossbar, inter-CU switch choice,
  /// inter-CU entry crossbar) scan the alternatives in a fixed order and
  /// take the first one that is fully alive, or nullopt when nothing
  /// survives (see degraded.hpp).  Endpoints are already known alive and
  /// distinct (DegradedTopology::route checks).
  std::optional<std::vector<int>> route_degraded(
      NodeId src, NodeId dst, const DegradedTopology& d) const;

  /// The eight inter-CU ISR 9288s: each chassis owns its L1/mid/L3
  /// crossbars, which share power and management and fail together.
  int switch_count() const { return params_.inter_cu_switches; }
  /// Crossbar ids belonging to switch chassis `sw`.
  std::vector<int> switch_members(int sw) const;

  /// Which inter-CU switches a given lower crossbar index uplinks to.
  std::vector<int> uplink_switches(int lower_xbar_index) const;

  /// Histogram of hop counts from `src` to every compute node (incl. self,
  /// so histogram[0] == 1).  Index = hop count, value = destinations.
  std::vector<int> hop_histogram(NodeId src) const;

  /// Average hops from `src` over all destinations including self (the
  /// paper's Table I average, 5.38).  Derived from hop_histogram, so the
  /// mean recomputed from the histogram matches bit-exactly by
  /// construction.
  double average_hops(NodeId src) const;

  /// True if crossbars a and b share a cable (used by the route validator).
  bool adjacent(int a, int b) const;

  /// BFS shortest hop distance in the crossbar graph from `xbar_id`,
  /// counting crossbars visited (the start counts as one); used by tests
  /// to show that the deterministic route is never shorter than physics
  /// allows.
  std::vector<int> bfs_crossbar_distance(int xbar_id) const;

  /// Same floor on a degraded fabric (topo/degraded.hpp): crossbars whose
  /// `failed` entry is nonzero are not traversed -- including `xbar_id`
  /// itself, whose distance stays -1 when it is failed -- and a cable a-b
  /// is only taken when `link_ok(a, b)` holds.  Unreachable (or failed)
  /// crossbars keep distance -1.
  std::vector<int> bfs_crossbar_distance(
      int xbar_id, const std::vector<char>& failed,
      const std::function<bool(int, int)>& link_ok) const;

 private:
  FatTree() = default;
  void add_link(int a, int b);
  /// Sort adjacency lists and check the per-crossbar port budget
  /// (links + attached nodes <= max_ports; 0 disables the check).
  void finalize_links(int max_ports);
  /// The deterministic route from `src` to `dst`, handed to `visit` one
  /// crossbar id at a time: route() stores the ids, hop_count() counts
  /// them, so the destination-indexed rule is written once.
  template <typename Visit>
  void walk(NodeId src, NodeId dst, Visit&& visit) const;
  std::optional<int> pick_upper(const DegradedTopology& d, int cu,
                                int from_lower, int to_lower) const;

  FatTreeParams params_;
  std::vector<Crossbar> xbars_;
  std::vector<int> node_xbar_;  ///< NodeId.v -> crossbar id
  std::vector<Attachment> attachments_;
  // id layout offsets
  int cu_lower_base_ = 0;
  int cu_upper_base_ = 0;
  int l1_base_ = 0;
  int mid_base_ = 0;
  int l3_base_ = 0;
};

}  // namespace rr::topo
