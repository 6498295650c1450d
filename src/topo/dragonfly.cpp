#include "topo/dragonfly.hpp"

namespace rr::topo {

namespace {
/// Global channel index of `peer` as seen from `group` (0 .. g-2): each
/// group numbers the other groups in id order, skipping itself.
int channel_to(int group, int peer) {
  RR_ASSERT(group != peer);
  return peer < group ? peer : peer - 1;
}
}  // namespace

Dragonfly Dragonfly::build(const DragonflyParams& p) {
  RR_EXPECTS(p.nodes_per_router >= 1);
  RR_EXPECTS(p.routers_per_group >= 1);
  RR_EXPECTS(p.global_links_per_router >= 1);
  RR_EXPECTS(p.groups >= 1);
  // One dedicated global cable per group pair: a group has a*h global
  // ports and needs g-1 of them.
  RR_EXPECTS(p.groups <= p.routers_per_group * p.global_links_per_router + 1);

  Dragonfly t;
  t.params_ = p;

  const int routers = p.groups * p.routers_per_group;
  t.xbars_.resize(static_cast<std::size_t>(routers));
  t.node_xbar_.resize(static_cast<std::size_t>(routers) * p.nodes_per_router);

  for (int g = 0; g < p.groups; ++g) {
    for (int r = 0; r < p.routers_per_group; ++r) {
      const int id = t.router_id(g, r);
      Crossbar& x = t.xbars_[id];
      x.kind = XbarKind::kDflyRouter;
      x.cu = g;
      x.sw = g;
      x.index = r;
      for (int n = 0; n < p.nodes_per_router; ++n) {
        const NodeId node{id * p.nodes_per_router + n};
        x.compute_nodes.push_back(node.v);
        t.node_xbar_[node.v] = id;
      }
    }
  }

  // Group-local cliques.
  for (int g = 0; g < p.groups; ++g)
    for (int a = 0; a < p.routers_per_group; ++a)
      for (int b = a + 1; b < p.routers_per_group; ++b)
        t.add_link(t.router_id(g, a), t.router_id(g, b));

  // Global cables: one per group pair, terminating at each side's gateway
  // router for the peer (channel / h distributes channels over routers).
  for (int g = 0; g < p.groups; ++g)
    for (int peer = g + 1; peer < p.groups; ++peer)
      t.add_link(t.gateway(g, peer), t.gateway(peer, g));

  t.finalize_links(p.nodes_per_router + (p.routers_per_group - 1) +
                   p.global_links_per_router);
  return t;
}

int Dragonfly::router_id(int group, int local) const {
  RR_EXPECTS(group >= 0 && group < params_.groups);
  RR_EXPECTS(local >= 0 && local < params_.routers_per_group);
  return group * params_.routers_per_group + local;
}

int Dragonfly::gateway(int group, int peer_group) const {
  RR_EXPECTS(group != peer_group);
  const int c = channel_to(group, peer_group);
  return router_id(group, c / params_.global_links_per_router);
}

std::vector<int> Dragonfly::route(NodeId src, NodeId dst) const {
  RR_EXPECTS(src.v >= 0 && src.v < node_count());
  RR_EXPECTS(dst.v >= 0 && dst.v < node_count());
  std::vector<int> path;
  if (src == dst) return path;

  const int from = node_xbar(src);
  const int to = node_xbar(dst);
  path.push_back(from);
  if (from == to) return path;

  const int src_group = xbars_[from].cu;
  const int dst_group = xbars_[to].cu;
  if (src_group == dst_group) {
    path.push_back(to);  // group routers form a clique
    return path;
  }

  // Minimal group-local: climb to the source group's gateway (if not
  // already there), cross the dedicated global cable, descend from the
  // destination group's gateway.
  const int out = gateway(src_group, dst_group);
  const int in = gateway(dst_group, src_group);
  if (from != out) path.push_back(out);
  path.push_back(in);
  if (in != to) path.push_back(to);
  return path;
}

}  // namespace rr::topo
