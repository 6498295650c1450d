// Dragonfly: groups of fully connected routers joined by an all-to-all
// global network (Kim/Dally/Scott/Abts' "Technology-Driven, Highly-
// Scalable Dragonfly Topology" -- the design that succeeded fat trees
// once optics made long global cables cheap).  Router radix splits into
// `p` node ports, `a - 1` group-local ports, and `h` global ports; a
// balanced machine supports up to a*h + 1 groups with one dedicated
// global cable per group pair.
//
// Routing is deterministic minimal group-local: source router, the
// source group's gateway for the destination group, the destination
// group's gateway back, destination router -- at most 4 crossbar hops
// anywhere in the machine, exactly 2 between gateway-attached nodes of
// different groups.
#pragma once

#include "topo/topology.hpp"

namespace rr::topo {

struct DragonflyParams {
  int nodes_per_router = 4;        ///< p
  int routers_per_group = 8;       ///< a
  int global_links_per_router = 4; ///< h
  int groups = 33;                 ///< g, 1 <= g <= a*h + 1
};

class Dragonfly final : public Topology {
 public:
  /// Dragonfly-specific invariants live here, not on the interface:
  /// positive radix split and enough global channels to dedicate one
  /// cable to every other group (g <= a*h + 1).
  static Dragonfly build(const DragonflyParams& params);

  const char* family() const override { return "dragonfly"; }
  const DragonflyParams& params() const { return params_; }

  int router_id(int group, int local) const;
  /// The router of `group` that owns the global cable to `peer_group`.
  int gateway(int group, int peer_group) const;

  std::vector<int> route(NodeId src, NodeId dst) const override;

 private:
  Dragonfly() = default;

  DragonflyParams params_;
};

}  // namespace rr::topo
