#include "topo/torus.hpp"

namespace rr::topo {

Torus Torus::build(const TorusParams& p) {
  RR_EXPECTS(!p.dims.empty());
  for (int k : p.dims) RR_EXPECTS(k >= 1);
  RR_EXPECTS(p.nodes_per_router >= 1);

  Torus t;
  t.params_ = p;

  int routers = 1;
  for (int k : p.dims) routers *= k;
  t.xbars_.resize(static_cast<std::size_t>(routers));
  t.node_xbar_.resize(static_cast<std::size_t>(routers) * p.nodes_per_router);

  for (int r = 0; r < routers; ++r) {
    Crossbar& x = t.xbars_[r];
    x.kind = XbarKind::kTorusRouter;
    x.index = r;
    for (int n = 0; n < p.nodes_per_router; ++n) {
      const NodeId id{r * p.nodes_per_router + n};
      x.compute_nodes.push_back(id.v);
      t.node_xbar_[id.v] = r;
    }
  }

  // One cable per ring edge: linking each router to its +1 neighbor per
  // dimension enumerates every edge exactly once -- except k == 2, where
  // +1 and -1 are the same neighbor (only coordinate 0 adds it), and
  // k == 1, where the "neighbor" is the router itself (no cable).
  for (int r = 0; r < routers; ++r) {
    const std::vector<int> c = t.coordinates(r);
    for (std::size_t d = 0; d < p.dims.size(); ++d) {
      const int k = p.dims[d];
      if (k == 1 || (k == 2 && c[d] != 0)) continue;
      std::vector<int> nb = c;
      nb[d] = (c[d] + 1) % k;
      t.add_link(r, t.router_id(nb));
    }
  }

  // Port budget: two ring ports per dimension plus the local nodes.
  t.finalize_links(2 * static_cast<int>(p.dims.size()) + p.nodes_per_router);
  return t;
}

int Torus::router_id(const std::vector<int>& coord) const {
  RR_EXPECTS(coord.size() == params_.dims.size());
  int id = 0;
  for (std::size_t d = 0; d < coord.size(); ++d) {
    RR_EXPECTS(coord[d] >= 0 && coord[d] < params_.dims[d]);
    id = id * params_.dims[d] + coord[d];
  }
  return id;
}

std::vector<int> Torus::coordinates(int router) const {
  RR_EXPECTS(router >= 0 && router < router_count());
  std::vector<int> c(params_.dims.size());
  for (int d = static_cast<int>(params_.dims.size()) - 1; d >= 0; --d) {
    c[d] = router % params_.dims[d];
    router /= params_.dims[d];
  }
  return c;
}

std::vector<int> Torus::route(NodeId src, NodeId dst) const {
  RR_EXPECTS(src.v >= 0 && src.v < node_count());
  RR_EXPECTS(dst.v >= 0 && dst.v < node_count());
  std::vector<int> path;
  if (src == dst) return path;

  const int from = node_xbar(src);
  const int to = node_xbar(dst);
  path.push_back(from);
  if (from == to) return path;

  std::vector<int> cur = coordinates(from);
  const std::vector<int> goal = coordinates(to);
  for (std::size_t d = 0; d < params_.dims.size(); ++d) {
    const int k = params_.dims[d];
    while (cur[d] != goal[d]) {
      const int fwd = ((goal[d] - cur[d]) % k + k) % k;
      const int step = fwd <= k - fwd ? 1 : -1;  // shorter way, ties -> +
      cur[d] = ((cur[d] + step) % k + k) % k;
      path.push_back(router_id(cur));
    }
  }
  return path;
}

}  // namespace rr::topo
