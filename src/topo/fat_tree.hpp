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
// class (see DESIGN.md §4).
#pragma once

#include "topo/topology.hpp"

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

/// Historical name from when the fat tree was the only topology.
using TopologyParams = FatTreeParams;

class FatTree final : public Topology {
 public:
  /// Build the full 17-CU Roadrunner fabric.
  static FatTree roadrunner();
  /// Build a custom configuration (used by tests and what-if studies).
  /// The fat-tree wiring invariants (switch count divisible by the uplink
  /// fan-out, inter-CU level size matching the lower-crossbar index space)
  /// are checked here -- they are properties of this family's layout, not
  /// of the Topology interface.
  static FatTree build(const FatTreeParams& params);

  int cu_count() const { return params_.cu_count; }
  const FatTreeParams& params() const { return params_; }

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

  std::vector<int> route(NodeId src, NodeId dst) const override;
  /// The length of route(src, dst), counted along the same walk without
  /// building the vector.
  int hop_count(NodeId src, NodeId dst) const override;

  /// Up*/down* rerouting around failures: at each decision point of the
  /// healthy route (intra-CU upper crossbar, inter-CU switch choice,
  /// inter-CU entry crossbar) scan the alternatives in a fixed order and
  /// take the first one that is fully alive (see degraded.hpp).
  std::optional<std::vector<int>> route_degraded(
      NodeId src, NodeId dst, const DegradedTopology& d) const override;

  /// The eight inter-CU ISR 9288s: each chassis owns its L1/mid/L3
  /// crossbars, which share power and management and fail together.
  int switch_count() const override { return params_.inter_cu_switches; }
  std::vector<int> switch_members(int sw) const override;

  /// Which inter-CU switches a given lower crossbar index uplinks to.
  std::vector<int> uplink_switches(int lower_xbar_index) const;

 private:
  FatTree() = default;
  /// The deterministic route from `src` to `dst`, handed to `visit` one
  /// crossbar id at a time: route() stores the ids, hop_count() counts
  /// them, so the destination-indexed rule is written once.
  template <typename Visit>
  void walk(NodeId src, NodeId dst, Visit&& visit) const;
  std::optional<int> pick_upper(const DegradedTopology& d, int cu,
                                int from_lower, int to_lower) const;

  FatTreeParams params_;
  std::vector<Attachment> attachments_;
  // id layout offsets
  int cu_lower_base_ = 0;
  int cu_upper_base_ = 0;
  int l1_base_ = 0;
  int mid_base_ = 0;
  int l3_base_ = 0;
};

}  // namespace rr::topo
