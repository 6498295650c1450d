#include "topo/degraded.hpp"

#include <algorithm>
#include <set>

namespace rr::topo {

namespace {
std::pair<int, int> ordered(int a, int b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}
}  // namespace

DegradedTopology::DegradedTopology(const FatTree& base)
    : base_(&base),
      xbar_failed_(static_cast<std::size_t>(base.crossbar_count()), 0),
      node_failed_(static_cast<std::size_t>(base.node_count()), 0) {}

void DegradedTopology::fail_crossbar(int id) {
  RR_EXPECTS(id >= 0 && id < base_->crossbar_count());
  if (!xbar_failed_[id]) {
    xbar_failed_[id] = 1;
    ++failed_xbars_;
  }
}

void DegradedTopology::fail_link(int a, int b) {
  RR_EXPECTS(base_->adjacent(a, b));
  const auto key = ordered(a, b);
  const auto it = std::lower_bound(cut_links_.begin(), cut_links_.end(), key);
  if (it == cut_links_.end() || *it != key) cut_links_.insert(it, key);
}

void DegradedTopology::fail_node(NodeId n) {
  RR_EXPECTS(n.v >= 0 && n.v < base_->node_count());
  node_failed_[n.v] = 1;
}

void DegradedTopology::fail_inter_cu_switch(int sw) {
  RR_EXPECTS(sw >= 0 && sw < base_->switch_count());
  for (int id : base_->switch_members(sw)) fail_crossbar(id);
}

void DegradedTopology::reset() {
  std::fill(xbar_failed_.begin(), xbar_failed_.end(), 0);
  std::fill(node_failed_.begin(), node_failed_.end(), 0);
  cut_links_.clear();
  failed_xbars_ = 0;
}

bool DegradedTopology::link_failed(int a, int b) const {
  return std::binary_search(cut_links_.begin(), cut_links_.end(), ordered(a, b));
}

bool DegradedTopology::node_alive(NodeId n) const {
  RR_EXPECTS(n.v >= 0 && n.v < base_->node_count());
  if (node_failed_[n.v]) return false;
  return !crossbar_failed(base_->node_xbar(n));
}

int DegradedTopology::alive_node_count() const {
  int alive = 0;
  for (int n = 0; n < base_->node_count(); ++n)
    if (node_alive(NodeId{n})) ++alive;
  return alive;
}

bool DegradedTopology::link_usable(int a, int b) const {
  return base_->adjacent(a, b) && !crossbar_failed(a) && !crossbar_failed(b) &&
         !link_failed(a, b);
}

std::optional<std::vector<int>> DegradedTopology::route(NodeId src,
                                                        NodeId dst) const {
  if (!node_alive(src) || !node_alive(dst)) return std::nullopt;
  if (src == dst) return std::vector<int>{};
  return base_->route_degraded(src, dst, *this);
}

std::optional<int> DegradedTopology::hop_count(NodeId src, NodeId dst) const {
  const auto r = route(src, dst);
  if (!r) return std::nullopt;
  return static_cast<int>(r->size());
}

std::vector<int> DegradedTopology::bfs_crossbar_distance(int xbar_id) const {
  if (cut_links_.empty())
    return base_->bfs_crossbar_distance(xbar_id, xbar_failed_, {});
  return base_->bfs_crossbar_distance(
      xbar_id, xbar_failed_,
      [this](int a, int b) { return !link_failed(a, b); });
}

bool path_valid(const DegradedTopology& d, NodeId src, NodeId dst,
                const std::vector<int>& path) {
  (void)src;
  if (path.empty()) return false;
  // Endpoint crossbars are checked explicitly: a single-element path has
  // no consecutive pair, and link_usable only vets interior hops.
  if (d.crossbar_failed(path.front()) || d.crossbar_failed(path.back()))
    return false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    if (!d.link_usable(path[i], path[i + 1])) return false;
  return path.back() == d.base().node_xbar(dst);
}

RouteAudit audit_routes(const DegradedTopology& d, int src_stride,
                        int dst_stride) {
  RR_EXPECTS(src_stride >= 1 && dst_stride >= 1);
  const FatTree& t = d.base();
  RouteAudit audit;
  for (int s = 0; s < t.node_count(); s += src_stride) {
    const NodeId src{s};
    if (!d.node_alive(src)) continue;
    const std::vector<int> floor = d.bfs_crossbar_distance(t.node_xbar(src));
    for (int e = 0; e < t.node_count(); e += dst_stride) {
      const NodeId dst{e};
      if (src == dst || !d.node_alive(dst)) continue;
      ++audit.pairs_checked;
      const auto path = d.route(src, dst);
      if (!path) {
        ++audit.unreachable;
        continue;
      }
      if (!path_valid(d, src, dst, *path)) ++audit.broken;
      const std::set<int> unique(path->begin(), path->end());
      if (unique.size() != path->size()) ++audit.loops;
      const int bfs = floor[path->back()];
      if (bfs < 0 || static_cast<int>(path->size()) < bfs)
        ++audit.below_bfs_floor;
      const int extra = static_cast<int>(path->size()) - t.hop_count(src, dst);
      audit.max_extra_hops = std::max(audit.max_extra_hops, extra);
    }
  }
  return audit;
}

}  // namespace rr::topo
