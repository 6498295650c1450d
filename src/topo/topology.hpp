// Abstract machine interconnect: the crossbar graph, deterministic
// routing, and the hop/latency queries every consumer (comm/fabric,
// topo/degraded, fault, sweep_engine) asks of a fabric.
//
// The one implementation is Roadrunner's fat tree of 24-port crossbars
// (fat_tree.hpp).  The contract it keeps:
//
//   * a route is the sequence of crossbar ids a message traverses,
//     starting at the source's own crossbar; empty for src == dst
//   * hop_count = route length, so hop_count(n, n) == 0
//   * hop_histogram(src) covers every node including self, so
//     histogram[0] == 1 and average_hops is the mean "including self"
//     (the paper's Table I convention, average 5.38)
//   * routing is deterministic: repeated calls return the same route
//
// The generic algorithms (histograms, adjacency, BFS floors) live here,
// driven by the derived class's wiring (`xbars_`) and routing (`route`).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/expect.hpp"

namespace rr::topo {

class DegradedTopology;

/// Global compute-node rank, 0 .. node_count()-1 (node = triblade).
struct NodeId {
  int v = -1;
  friend constexpr auto operator<=>(NodeId, NodeId) = default;
};

enum class XbarKind : std::uint8_t {
  kCuLower,      ///< fat tree: CU switch, node-facing level
  kCuUpper,      ///< fat tree: CU switch, spine level
  kInterCuL1,    ///< fat tree: inter-CU switch, first level (CUs 1-12)
  kInterCuMid,   ///< fat tree: inter-CU switch, middle level
  kInterCuL3,    ///< fat tree: inter-CU switch, last level (CUs 13-17)
};

/// One crossbar of the fabric.
struct Crossbar {
  XbarKind kind{};
  int cu = -1;      ///< owning CU, else -1
  int sw = -1;      ///< owning inter-CU switch, else -1
  int index = -1;   ///< index within its level
  std::vector<int> links;           ///< adjacent crossbar ids (sorted)
  std::vector<int> compute_nodes;   ///< attached compute NodeId values
  int io_nodes = 0;                 ///< attached I/O node count
};

class Topology {
 public:
  virtual ~Topology() = default;

  /// The deterministic route: the sequence of crossbars a message from
  /// `src` to `dst` traverses.  Empty for src == dst.
  virtual std::vector<int> route(NodeId src, NodeId dst) const = 0;

  /// The degraded route from `src` to `dst` on the surviving fabric, or
  /// nullopt when nothing survives.  Endpoints are already known alive
  /// and distinct (DegradedTopology::route checks).
  virtual std::optional<std::vector<int>> route_degraded(
      NodeId src, NodeId dst, const DegradedTopology& d) const = 0;

  /// Multi-crossbar switch chassis that fail as one unit (shared power
  /// and management plane).
  virtual int switch_count() const = 0;
  /// Crossbar ids belonging to switch chassis `sw`.
  virtual std::vector<int> switch_members(int sw) const = 0;

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

  /// Number of crossbar hops on the deterministic route (Table I metric).
  /// Zero for src == dst (the route is empty).  Every IB leg of the DES
  /// asks, so the fat tree counts without building the route.
  virtual int hop_count(NodeId src, NodeId dst) const = 0;

  /// Histogram of hop counts from `src` to every compute node (incl. self,
  /// so histogram[0] == 1).  Index = hop count, value = destinations.
  std::vector<int> hop_histogram(NodeId src) const;

  /// Average hops from `src` over all destinations including self (the
  /// paper's Table I average, 5.38 on the fat tree).  Derived from
  /// hop_histogram, so the mean recomputed from the histogram matches
  /// bit-exactly by construction.
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

 protected:
  Topology() = default;
  Topology(const Topology&) = default;
  Topology& operator=(const Topology&) = default;

  void add_link(int a, int b);
  /// Sort adjacency lists and check the per-crossbar port budget
  /// (links + attached nodes <= max_ports; 0 disables the check).
  void finalize_links(int max_ports);

  std::vector<Crossbar> xbars_;
  std::vector<int> node_xbar_;  ///< NodeId.v -> crossbar id
};

}  // namespace rr::topo
