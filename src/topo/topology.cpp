#include "topo/topology.hpp"

#include <algorithm>
#include <queue>

namespace rr::topo {

void Topology::add_link(int a, int b) {
  RR_EXPECTS(a != b);
  xbars_[a].links.push_back(b);
  xbars_[b].links.push_back(a);
}

void Topology::finalize_links(int max_ports) {
  for (auto& x : xbars_) {
    std::sort(x.links.begin(), x.links.end());
    if (max_ports <= 0) continue;
    const int ports = static_cast<int>(x.links.size()) +
                      static_cast<int>(x.compute_nodes.size()) + x.io_nodes;
    RR_ENSURES(ports <= max_ports);
  }
}

std::vector<int> Topology::hop_histogram(NodeId src) const {
  std::vector<int> hist;
  for (int d = 0; d < node_count(); ++d) {
    const int h = hop_count(src, NodeId{d});
    if (h >= static_cast<int>(hist.size())) hist.resize(h + 1, 0);
    ++hist[h];
  }
  return hist;
}

double Topology::average_hops(NodeId src) const {
  const std::vector<int> hist = hop_histogram(src);
  std::int64_t total = 0;
  std::int64_t count = 0;
  for (std::size_t h = 0; h < hist.size(); ++h) {
    total += static_cast<std::int64_t>(h) * hist[h];
    count += hist[h];
  }
  RR_ASSERT(count == node_count());
  return static_cast<double>(total) / static_cast<double>(count);
}

bool Topology::adjacent(int a, int b) const {
  RR_EXPECTS(a >= 0 && a < crossbar_count());
  RR_EXPECTS(b >= 0 && b < crossbar_count());
  const auto& links = xbars_[a].links;
  return std::binary_search(links.begin(), links.end(), b);
}

std::vector<int> Topology::bfs_crossbar_distance(int xbar_id) const {
  static const std::vector<char> no_failures;
  return bfs_crossbar_distance(xbar_id, no_failures, {});
}

std::vector<int> Topology::bfs_crossbar_distance(
    int xbar_id, const std::vector<char>& failed,
    const std::function<bool(int, int)>& link_ok) const {
  RR_EXPECTS(xbar_id >= 0 && xbar_id < crossbar_count());
  RR_EXPECTS(failed.empty() || failed.size() == xbars_.size());
  const auto down = [&](int id) { return !failed.empty() && failed[id]; };
  std::vector<int> dist(xbars_.size(), -1);
  // A failed start crossbar reaches nothing -- not even itself: every
  // distance stays -1 (never 0, which would read as "reachable for free").
  if (down(xbar_id)) return dist;
  std::queue<int> q;
  dist[xbar_id] = 1;  // the starting crossbar itself counts as one hop
  q.push(xbar_id);
  while (!q.empty()) {
    const int x = q.front();
    q.pop();
    for (int nb : xbars_[x].links) {
      if (dist[nb] == -1 && !down(nb) && (!link_ok || link_ok(x, nb))) {
        dist[nb] = dist[x] + 1;
        q.push(nb);
      }
    }
  }
  return dist;
}

}  // namespace rr::topo
