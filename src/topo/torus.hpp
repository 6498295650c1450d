// k-ary n-cube tori: the interconnect family of BlueGene/L ("The
// BlueGene/L Supercomputer": 3D torus of compute ASICs), QPACE (the
// paper's own PowerXCell 8i on a custom 3D torus), and the Columbia
// lattice-QCD machines (4D).  One router per lattice point, a bidirectional
// ring per dimension, `nodes_per_router` compute nodes attached locally.
//
// Routing is deterministic dimension-ordered (e-cube): resolve dimension
// 0 first, then 1, ..., stepping along the shorter ring direction (ties
// break toward +).  Every route is minimal, so the hop histogram is the
// lattice ring-distance distribution shifted by the source router.
#pragma once

#include "topo/topology.hpp"

namespace rr::topo {

struct TorusParams {
  /// Ring length per dimension (e.g. {8, 8, 8} for a 512-router 3D torus).
  std::vector<int> dims;
  /// Compute nodes attached to each router (>= 1).
  int nodes_per_router = 1;
};

class Torus final : public Topology {
 public:
  /// Torus-specific invariants live here, not on the interface: at least
  /// one dimension, every ring length >= 1, at least one node per router.
  static Torus build(const TorusParams& params);

  const char* family() const override { return "torus"; }
  const TorusParams& params() const { return params_; }

  int router_count() const { return crossbar_count(); }
  int router_id(const std::vector<int>& coord) const;
  std::vector<int> coordinates(int router) const;

  std::vector<int> route(NodeId src, NodeId dst) const override;

 private:
  Torus() = default;

  TorusParams params_;
};

}  // namespace rr::topo
