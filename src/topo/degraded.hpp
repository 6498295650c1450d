// Degraded operation of a fabric: an overlay on an immutable FatTree
// that marks crossbars, cables, and nodes as failed and reroutes around
// them.  The rerouting discipline is the fat tree's own
// (FatTree::route_degraded): it preserves its deterministic
// destination-indexed up*/down* structure instead of falling back to
// shortest paths, so routes stay loop-free and are a pure function of
// the fault set.
//
// This is the `src/topo` half of the fault subsystem (src/fault); the
// MTBF machinery that decides *what* fails lives over there.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "topo/fat_tree.hpp"

namespace rr::topo {

class DegradedTopology {
 public:
  explicit DegradedTopology(const FatTree& base);

  const FatTree& base() const { return *base_; }

  // ---- fault injection ----------------------------------------------------
  void fail_crossbar(int id);
  /// One cable between adjacent crossbars (order-insensitive).
  void fail_link(int a, int b);
  void fail_node(NodeId n);
  /// A whole switch chassis: all of its member crossbars at once (shared
  /// chassis, power, and management plane; FatTree::switch_members).
  void fail_inter_cu_switch(int sw);
  /// Back to the pristine fabric.
  void reset();

  // ---- state queries ------------------------------------------------------
  bool crossbar_failed(int id) const { return xbar_failed_[id] != 0; }
  bool link_failed(int a, int b) const;
  /// A node is alive iff neither it nor its crossbar has failed.
  bool node_alive(NodeId n) const;
  int failed_crossbar_count() const { return failed_xbars_; }
  int alive_node_count() const;
  /// True when the cable a-b exists, both ends are alive, and the cable
  /// itself has not been cut.
  bool link_usable(int a, int b) const;

  // ---- degraded routing ----------------------------------------------------
  /// The degraded route from src to dst, or nullopt when no route
  /// survives.  Empty path for src == dst.  Both endpoints must be alive.
  std::optional<std::vector<int>> route(NodeId src, NodeId dst) const;

  /// Hops on the degraded route (nullopt when unreachable).
  std::optional<int> hop_count(NodeId src, NodeId dst) const;

  /// BFS crossbar distance on the *surviving* fabric (same convention as
  /// FatTree::bfs_crossbar_distance: the start crossbar counts as one).
  /// Failed crossbars keep distance -1 -- including the start itself.
  std::vector<int> bfs_crossbar_distance(int xbar_id) const;

 private:
  const FatTree* base_;
  std::vector<char> xbar_failed_;
  std::vector<char> node_failed_;
  std::vector<std::pair<int, int>> cut_links_;  // sorted pairs (a < b)
  int failed_xbars_ = 0;
};

/// Validate one candidate src -> dst path against the degraded fabric:
/// non-empty, the *first and last* crossbars are alive (a path that
/// starts or ends on a failed crossbar is broken even if every interior
/// cable checks out), every consecutive pair is a usable cable, and the
/// path ends at the destination's crossbar.  The audit uses this for its
/// `broken` counter; tests feed it synthetic paths.
bool path_valid(const DegradedTopology& d, NodeId src, NodeId dst,
                const std::vector<int>& path);

/// Sweep of surviving node pairs (src sampled every `src_stride`, dst
/// every `dst_stride`) validating the degraded router:
///   * every route passes path_valid (live endpoints, existing uncut
///     cables between live crossbars, correct final crossbar)
///   * no crossbar repeats on a path (loop-free)
///   * no path beats the BFS floor of the surviving fabric
struct RouteAudit {
  int pairs_checked = 0;
  int unreachable = 0;
  int broken = 0;          ///< dead component or missing cable on a path
  int loops = 0;
  int below_bfs_floor = 0; ///< route shorter than physically possible
  int max_extra_hops = 0;  ///< max(degraded hops - healthy hops)

  bool clean() const { return broken == 0 && loops == 0 && below_bfs_floor == 0; }
};

RouteAudit audit_routes(const DegradedTopology& d, int src_stride = 331,
                        int dst_stride = 97);

}  // namespace rr::topo
