#include "topo/fat_tree.hpp"

#include <algorithm>
#include <queue>

#include "topo/degraded.hpp"

namespace rr::topo {

namespace {
/// Number of switch groups by parity class: with 8 switches and 4 uplinks
/// per lower crossbar, uplinks from crossbar j go to switches
/// { j mod K + K*t : t = 0..3 } with K = 2 (see Section II.B).
int switch_stride(const FatTreeParams& p) {
  RR_EXPECTS(p.inter_cu_switches % p.uplinks_per_lower_xbar == 0);
  return p.inter_cu_switches / p.uplinks_per_lower_xbar;
}
}  // namespace

FatTree FatTree::roadrunner() { return build(FatTreeParams{}); }

FatTree FatTree::build(const FatTreeParams& p) {
  RR_EXPECTS(p.cu_count >= 1);
  RR_EXPECTS(p.lower_xbars_per_cu % switch_stride(p) == 0);
  // Level size of the inter-CU switches must match the lower-crossbar
  // index space so that destination-indexed routing is well defined.
  const int level_size = p.lower_xbars_per_cu / switch_stride(p);
  RR_EXPECTS(level_size == p.upper_xbars_per_cu);

  FatTree t;
  t.params_ = p;

  // ---- allocate crossbars -------------------------------------------------
  const int n_cu_lower = p.cu_count * p.lower_xbars_per_cu;
  const int n_cu_upper = p.cu_count * p.upper_xbars_per_cu;
  const int n_level = p.inter_cu_switches * level_size;
  t.cu_lower_base_ = 0;
  t.cu_upper_base_ = n_cu_lower;
  t.l1_base_ = t.cu_upper_base_ + n_cu_upper;
  t.mid_base_ = t.l1_base_ + n_level;
  t.l3_base_ = t.mid_base_ + n_level;
  t.xbars_.resize(t.l3_base_ + n_level);

  for (int cu = 0; cu < p.cu_count; ++cu) {
    for (int j = 0; j < p.lower_xbars_per_cu; ++j) {
      Crossbar& x = t.xbars_[t.cu_lower_id(cu, j)];
      x.kind = XbarKind::kCuLower;
      x.cu = cu;
      x.index = j;
    }
    for (int u = 0; u < p.upper_xbars_per_cu; ++u) {
      Crossbar& x = t.xbars_[t.cu_upper_id(cu, u)];
      x.kind = XbarKind::kCuUpper;
      x.cu = cu;
      x.index = u;
    }
  }
  for (int sw = 0; sw < p.inter_cu_switches; ++sw) {
    for (int i = 0; i < level_size; ++i) {
      Crossbar& a = t.xbars_[t.l1_id(sw, i)];
      a.kind = XbarKind::kInterCuL1;
      a.sw = sw;
      a.index = i;
      Crossbar& b = t.xbars_[t.mid_id(sw, i)];
      b.kind = XbarKind::kInterCuMid;
      b.sw = sw;
      b.index = i;
      Crossbar& c = t.xbars_[t.l3_id(sw, i)];
      c.kind = XbarKind::kInterCuL3;
      c.sw = sw;
      c.index = i;
    }
  }

  // ---- attach nodes -------------------------------------------------------
  // Compute nodes fill lower crossbars 8 at a time; the crossbar after the
  // last full one carries the remaining compute nodes plus the first I/O
  // nodes; remaining I/O nodes continue onto the following crossbar(s)
  // ("22 ... have 8 compute nodes, one has 4 compute and 4 I/O, and the
  //  last has 8 I/O", Section II.B).
  const int total_nodes = p.cu_count * p.compute_nodes_per_cu;
  t.attachments_.resize(static_cast<std::size_t>(total_nodes));
  t.node_xbar_.resize(static_cast<std::size_t>(total_nodes), -1);
  for (int cu = 0; cu < p.cu_count; ++cu) {
    for (int local = 0; local < p.compute_nodes_per_cu; ++local) {
      const int j = local / p.nodes_per_lower_xbar;
      const int port = local % p.nodes_per_lower_xbar;
      RR_ASSERT(j < p.lower_xbars_per_cu);
      const NodeId id{cu * p.compute_nodes_per_cu + local};
      t.xbars_[t.cu_lower_id(cu, j)].compute_nodes.push_back(id.v);
      t.attachments_[id.v] = Attachment{cu, j, port};
      t.node_xbar_[id.v] = t.cu_lower_id(cu, j);
    }
    int io_slot = p.compute_nodes_per_cu;  // continue port-filling after compute
    for (int k = 0; k < p.io_nodes_per_cu; ++k, ++io_slot) {
      const int j = io_slot / p.nodes_per_lower_xbar;
      RR_ASSERT(j < p.lower_xbars_per_cu);
      ++t.xbars_[t.cu_lower_id(cu, j)].io_nodes;
    }
  }

  // ---- intra-CU fat tree: every lower crossbar to every upper crossbar ----
  for (int cu = 0; cu < p.cu_count; ++cu)
    for (int j = 0; j < p.lower_xbars_per_cu; ++j)
      for (int u = 0; u < p.upper_xbars_per_cu; ++u)
        t.add_link(t.cu_lower_id(cu, j), t.cu_upper_id(cu, u));

  // ---- uplinks: lower crossbar j -> switches {j mod K + K*t}, entering at
  //      level crossbar (j div K); CUs 1..first_level attach at L1, the
  //      rest at L3.
  const int stride = switch_stride(p);
  for (int cu = 0; cu < p.cu_count; ++cu) {
    const bool first_side = cu < p.first_level_cus;
    for (int j = 0; j < p.lower_xbars_per_cu; ++j) {
      const int entry = j / stride;
      for (int tlink = 0; tlink < p.uplinks_per_lower_xbar; ++tlink) {
        const int sw = j % stride + stride * tlink;
        const int level_xbar = first_side ? t.l1_id(sw, entry) : t.l3_id(sw, entry);
        t.add_link(t.cu_lower_id(cu, j), level_xbar);
      }
    }
  }

  // ---- inside each inter-CU switch: L1 and L3 fully connect to the middle
  for (int sw = 0; sw < p.inter_cu_switches; ++sw)
    for (int a = 0; a < level_size; ++a)
      for (int m = 0; m < level_size; ++m) {
        t.add_link(t.l1_id(sw, a), t.mid_id(sw, m));
        t.add_link(t.l3_id(sw, a), t.mid_id(sw, m));
      }

  // Crossbars are 24-port devices; nothing may exceed the port budget.
  t.finalize_links(p.crossbar_ports);
  return t;
}

void FatTree::add_link(int a, int b) {
  RR_EXPECTS(a != b);
  xbars_[a].links.push_back(b);
  xbars_[b].links.push_back(a);
  ++link_count_;
}

void FatTree::finalize_links(int max_ports) {
  for (auto& x : xbars_) {
    std::sort(x.links.begin(), x.links.end());
    if (max_ports <= 0) continue;
    const int ports = static_cast<int>(x.links.size()) +
                      static_cast<int>(x.compute_nodes.size()) + x.io_nodes;
    RR_ENSURES(ports <= max_ports);
  }
}

int FatTree::cu_lower_id(int cu, int j) const {
  RR_EXPECTS(cu >= 0 && cu < params_.cu_count);
  RR_EXPECTS(j >= 0 && j < params_.lower_xbars_per_cu);
  return cu_lower_base_ + cu * params_.lower_xbars_per_cu + j;
}
int FatTree::cu_upper_id(int cu, int u) const {
  RR_EXPECTS(cu >= 0 && cu < params_.cu_count);
  RR_EXPECTS(u >= 0 && u < params_.upper_xbars_per_cu);
  return cu_upper_base_ + cu * params_.upper_xbars_per_cu + u;
}
int FatTree::l1_id(int sw, int x) const {
  RR_EXPECTS(sw >= 0 && sw < params_.inter_cu_switches);
  return l1_base_ + sw * params_.upper_xbars_per_cu + x;
}
int FatTree::mid_id(int sw, int m) const {
  RR_EXPECTS(sw >= 0 && sw < params_.inter_cu_switches);
  return mid_base_ + sw * params_.upper_xbars_per_cu + m;
}
int FatTree::l3_id(int sw, int y) const {
  RR_EXPECTS(sw >= 0 && sw < params_.inter_cu_switches);
  return l3_base_ + sw * params_.upper_xbars_per_cu + y;
}

std::vector<int> FatTree::switch_members(int sw) const {
  RR_EXPECTS(sw >= 0 && sw < params_.inter_cu_switches);
  std::vector<int> out;
  for (int i = 0; i < params_.upper_xbars_per_cu; ++i) {
    out.push_back(l1_id(sw, i));
    out.push_back(mid_id(sw, i));
    out.push_back(l3_id(sw, i));
  }
  return out;
}

std::vector<int> FatTree::uplink_switches(int j) const {
  const int stride = switch_stride(params_);
  std::vector<int> out;
  for (int tlink = 0; tlink < params_.uplinks_per_lower_xbar; ++tlink)
    out.push_back(j % stride + stride * tlink);
  return out;
}

template <typename Visit>
void FatTree::walk(NodeId src, NodeId dst, Visit&& visit) const {
  RR_EXPECTS(src.v >= 0 && src.v < node_count());
  RR_EXPECTS(dst.v >= 0 && dst.v < node_count());
  if (src == dst) return;

  const Attachment& a = attachments_[src.v];
  const Attachment& b = attachments_[dst.v];

  visit(cu_lower_id(a.cu, a.lower_xbar));
  if (a.cu == b.cu) {
    if (a.lower_xbar != b.lower_xbar) {
      visit(cu_upper_id(a.cu, b.lower_xbar % params_.upper_xbars_per_cu));
      visit(cu_lower_id(a.cu, b.lower_xbar));
    }
    return;
  }

  // Cross-CU: enter the inter-CU fabric through lower crossbar b.lower_xbar
  // (the only crossbar with an uplink landing at the destination's entry
  // crossbar -- destination-indexed deterministic routing).
  const int j = b.lower_xbar;
  if (a.lower_xbar != j) {
    visit(cu_upper_id(a.cu, j % params_.upper_xbars_per_cu));
    visit(cu_lower_id(a.cu, j));
  }
  const int stride = switch_stride(params_);
  const int sw = j % stride + stride * (b.cu % params_.uplinks_per_lower_xbar);
  const int entry = j / stride;
  const bool src_first = a.cu < params_.first_level_cus;
  const bool dst_first = b.cu < params_.first_level_cus;
  if (src_first && dst_first) {
    visit(l1_id(sw, entry));
  } else if (src_first && !dst_first) {
    visit(l1_id(sw, entry));
    visit(mid_id(sw, entry));
    visit(l3_id(sw, entry));
  } else if (!src_first && dst_first) {
    visit(l3_id(sw, entry));
    visit(mid_id(sw, entry));
    visit(l1_id(sw, entry));
  } else {
    visit(l3_id(sw, entry));
  }
  visit(cu_lower_id(b.cu, j));
}

std::vector<int> FatTree::route(NodeId src, NodeId dst) const {
  std::vector<int> path;
  walk(src, dst, [&](int xbar) { path.push_back(xbar); });
  return path;
}

int FatTree::hop_count(NodeId src, NodeId dst) const {
  int hops = 0;
  walk(src, dst, [&](int) { ++hops; });
  return hops;
}

/// First surviving upper crossbar of `cu` cabled to both lower crossbars,
/// scanning from the destination-indexed preference in a fixed order.
std::optional<int> FatTree::pick_upper(const DegradedTopology& d, int cu,
                                       int from_lower, int to_lower) const {
  const int uppers = params_.upper_xbars_per_cu;
  const int lo_from = cu_lower_id(cu, from_lower);
  const int lo_to = cu_lower_id(cu, to_lower);
  const int preferred = to_lower % uppers;
  for (int k = 0; k < uppers; ++k) {
    const int up = cu_upper_id(cu, (preferred + k) % uppers);
    if (d.link_usable(lo_from, up) && d.link_usable(up, lo_to)) return up;
  }
  return std::nullopt;
}

std::optional<std::vector<int>> FatTree::route_degraded(
    NodeId src, NodeId dst, const DegradedTopology& d) const {
  const FatTreeParams& p = params_;
  const Attachment& a = attachment(src);
  const Attachment& b = attachment(dst);
  const int src_lower = cu_lower_id(a.cu, a.lower_xbar);
  const int dst_lower = cu_lower_id(b.cu, b.lower_xbar);
  std::vector<int> path;

  if (a.cu == b.cu) {
    path.push_back(src_lower);
    if (a.lower_xbar == b.lower_xbar) return path;
    const auto up = pick_upper(d, a.cu, a.lower_xbar, b.lower_xbar);
    if (!up) return std::nullopt;
    path.push_back(*up);
    path.push_back(dst_lower);
    return path;
  }

  // Cross-CU.  Preferred entry crossbar index is the destination's lower
  // crossbar (healthy destination-indexed routing); if no switch path
  // survives through it, fall back to another entry index and descend
  // through the destination CU's fat tree (at most +2 hops).
  const int stride = p.inter_cu_switches / p.uplinks_per_lower_xbar;
  const bool src_first = a.cu < p.first_level_cus;
  const bool dst_first = b.cu < p.first_level_cus;

  for (int jk = 0; jk < p.lower_xbars_per_cu; ++jk) {
    const int j = (b.lower_xbar + jk) % p.lower_xbars_per_cu;
    const int climb_from = cu_lower_id(a.cu, j);
    const int land_at = cu_lower_id(b.cu, j);
    if (d.crossbar_failed(climb_from) || d.crossbar_failed(land_at)) continue;

    // Climb inside the source CU to the entry crossbar.
    std::vector<int> prefix;
    prefix.push_back(src_lower);
    if (a.lower_xbar != j) {
      const auto up = pick_upper(d, a.cu, a.lower_xbar, j);
      if (!up) continue;
      prefix.push_back(*up);
      prefix.push_back(climb_from);
    }

    // Cross through one of the entry crossbar's uplink switches.
    const int entry = j / stride;
    std::vector<int> across;
    bool crossed = false;
    for (int tk = 0; tk < p.uplinks_per_lower_xbar && !crossed; ++tk) {
      const int t =
          (b.cu % p.uplinks_per_lower_xbar + tk) % p.uplinks_per_lower_xbar;
      const int sw = j % stride + stride * t;
      across.clear();
      if (src_first && dst_first) {
        across = {l1_id(sw, entry)};
      } else if (src_first && !dst_first) {
        across = {l1_id(sw, entry), mid_id(sw, entry), l3_id(sw, entry)};
      } else if (!src_first && dst_first) {
        across = {l3_id(sw, entry), mid_id(sw, entry), l1_id(sw, entry)};
      } else {
        across = {l3_id(sw, entry)};
      }
      crossed = d.link_usable(climb_from, across.front()) &&
                d.link_usable(across.back(), land_at);
      for (std::size_t i = 0; crossed && i + 1 < across.size(); ++i)
        crossed = d.link_usable(across[i], across[i + 1]);
    }
    if (!crossed) continue;

    // Descend inside the destination CU when we entered off-index.
    std::vector<int> suffix;
    suffix.push_back(land_at);
    if (j != b.lower_xbar) {
      const auto up = pick_upper(d, b.cu, j, b.lower_xbar);
      if (!up) continue;
      suffix.push_back(*up);
      suffix.push_back(dst_lower);
    }

    path = std::move(prefix);
    path.insert(path.end(), across.begin(), across.end());
    path.insert(path.end(), suffix.begin(), suffix.end());
    return path;
  }
  return std::nullopt;
}

std::vector<int> FatTree::hop_histogram(NodeId src) const {
  std::vector<int> hist;
  for (int d = 0; d < node_count(); ++d) {
    const int h = hop_count(src, NodeId{d});
    if (h >= static_cast<int>(hist.size())) hist.resize(h + 1, 0);
    ++hist[h];
  }
  return hist;
}

double FatTree::average_hops(NodeId src) const {
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

bool FatTree::adjacent(int a, int b) const {
  RR_EXPECTS(a >= 0 && a < crossbar_count());
  RR_EXPECTS(b >= 0 && b < crossbar_count());
  const auto& links = xbars_[a].links;
  return std::binary_search(links.begin(), links.end(), b);
}

std::vector<int> FatTree::bfs_crossbar_distance(int xbar_id) const {
  static const std::vector<char> no_failures;
  return bfs_crossbar_distance(xbar_id, no_failures, {});
}

std::vector<int> FatTree::bfs_crossbar_distance(
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
