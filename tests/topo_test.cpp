#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "topo/degraded.hpp"
#include "topo/fat_tree.hpp"

namespace rr::topo {
namespace {

const FatTree& full() {
  static const FatTree t = FatTree::roadrunner();
  return t;
}

// ---------------------------------------------------------------------------
// Structure
// ---------------------------------------------------------------------------

TEST(Topology, SizesMatchPaper) {
  const FatTree& t = full();
  EXPECT_EQ(t.node_count(), 3060);
  EXPECT_EQ(t.cu_count(), 17);
  // 17 CUs x 36 crossbars + 8 switches x 36 crossbars = 900.
  EXPECT_EQ(t.crossbar_count(), 900);
}

TEST(Topology, LowerCrossbarPopulation) {
  const FatTree& t = full();
  for (int cu = 0; cu < t.cu_count(); ++cu) {
    int compute = 0, io = 0, full8 = 0, mixed = 0, io8 = 0;
    for (int j = 0; j < 24; ++j) {
      const Crossbar& x = t.crossbar(t.cu_lower_id(cu, j));
      compute += static_cast<int>(x.compute_nodes.size());
      io += x.io_nodes;
      if (x.compute_nodes.size() == 8 && x.io_nodes == 0) ++full8;
      if (x.compute_nodes.size() == 4 && x.io_nodes == 4) ++mixed;
      if (x.compute_nodes.empty() && x.io_nodes == 8) ++io8;
    }
    EXPECT_EQ(compute, 180);
    EXPECT_EQ(io, 12);
    EXPECT_EQ(full8, 22);  // "22 of the lower level crossbars have 8 nodes"
    EXPECT_EQ(mixed, 1);   // "one crossbar has 4 compute nodes and 4 I/O"
    EXPECT_EQ(io8, 1);     // "the last crossbar has 8 I/O nodes"
  }
}

TEST(Topology, PortBudgetsRespected) {
  const FatTree& t = full();
  for (int id = 0; id < t.crossbar_count(); ++id) {
    const Crossbar& x = t.crossbar(id);
    const int ports = static_cast<int>(x.links.size()) +
                      static_cast<int>(x.compute_nodes.size()) + x.io_nodes;
    EXPECT_LE(ports, 24) << "crossbar " << id;
  }
}

TEST(Topology, CuFatTreeIsFull) {
  const FatTree& t = full();
  // Every lower crossbar connects to every upper crossbar within its CU.
  for (int j = 0; j < 24; ++j)
    for (int u = 0; u < 12; ++u)
      EXPECT_TRUE(t.adjacent(t.cu_lower_id(3, j), t.cu_upper_id(3, u)));
  // ... and never to another CU's upper crossbars.
  EXPECT_FALSE(t.adjacent(t.cu_lower_id(3, 0), t.cu_upper_id(4, 0)));
}

TEST(Topology, EachCuHas96Uplinks) {
  const FatTree& t = full();
  // 24 lower crossbars x 4 uplinks = 96 uplinks; 12 land on each of the 8
  // inter-CU switches (Section II.B).
  std::map<int, int> per_switch;
  for (int j = 0; j < 24; ++j) {
    const auto switches = t.uplink_switches(j);
    EXPECT_EQ(switches.size(), 4u);
    for (int s : switches) ++per_switch[s];
  }
  EXPECT_EQ(per_switch.size(), 8u);
  for (const auto& [sw, count] : per_switch) EXPECT_EQ(count, 12) << "switch " << sw;
}

TEST(Topology, InterCuSwitchInternalWiring) {
  const FatTree& t = full();
  for (int x = 0; x < 12; ++x)
    for (int m = 0; m < 12; ++m) {
      EXPECT_TRUE(t.adjacent(t.l1_id(0, x), t.mid_id(0, m)));
      EXPECT_TRUE(t.adjacent(t.l3_id(0, x), t.mid_id(0, m)));
    }
  EXPECT_FALSE(t.adjacent(t.l1_id(0, 0), t.l3_id(0, 0)));
  EXPECT_FALSE(t.adjacent(t.l1_id(0, 0), t.l1_id(1, 0)));
}

// ---------------------------------------------------------------------------
// Routing invariants
// ---------------------------------------------------------------------------

TEST(Routing, SelfRouteIsEmpty) {
  EXPECT_TRUE(full().route(NodeId{0}, NodeId{0}).empty());
  EXPECT_EQ(full().hop_count(NodeId{17}, NodeId{17}), 0);
}

TEST(Routing, EveryRouteEdgeExists) {
  const FatTree& t = full();
  // Spot-check a spread of destination classes from several sources.
  const int sources[] = {0, 7, 176, 180 * 5 + 33, 180 * 12, 180 * 16 + 179};
  for (int s : sources) {
    for (int d = 0; d < t.node_count(); d += 97) {
      const auto path = t.route(NodeId{s}, NodeId{d});
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        ASSERT_TRUE(t.adjacent(path[i], path[i + 1]))
            << "broken cable on route " << s << " -> " << d << " at hop " << i;
    }
  }
}

TEST(Routing, RoutesAreLoopFree) {
  const FatTree& t = full();
  for (int d = 0; d < t.node_count(); d += 61) {
    const auto path = t.route(NodeId{5}, NodeId{d});
    const std::set<int> unique(path.begin(), path.end());
    EXPECT_EQ(unique.size(), path.size()) << "loop on route to " << d;
  }
}

TEST(Routing, RouteEndsAtDestinationCrossbar) {
  const FatTree& t = full();
  for (int d : {1, 200, 999, 2160, 3059}) {
    const auto path = t.route(NodeId{0}, NodeId{d});
    ASSERT_FALSE(path.empty());
    const Attachment& att = t.attachment(NodeId{d});
    EXPECT_EQ(path.back(), t.cu_lower_id(att.cu, att.lower_xbar));
  }
}

TEST(Routing, HopCountIsSymmetric) {
  const FatTree& t = full();
  for (int a = 0; a < t.node_count(); a += 401)
    for (int b = 0; b < t.node_count(); b += 577)
      EXPECT_EQ(t.hop_count(NodeId{a}, NodeId{b}), t.hop_count(NodeId{b}, NodeId{a}));
}

TEST(Routing, DeterministicRouteNeverBeatsBfs) {
  const FatTree& t = full();
  const Attachment& src = t.attachment(NodeId{0});
  const auto dist = t.bfs_crossbar_distance(t.cu_lower_id(src.cu, src.lower_xbar));
  for (int d = 1; d < t.node_count(); d += 131) {
    const Attachment& att = t.attachment(NodeId{d});
    const int bfs = dist[t.cu_lower_id(att.cu, att.lower_xbar)];
    EXPECT_GE(t.hop_count(NodeId{0}, NodeId{d}), bfs);
  }
}

// ---------------------------------------------------------------------------
// Routing contract on three trees: 3 CUs (first inter-CU level only),
// 13 CUs (both sides of the inter-CU level) and the full machine
//
//   * self-destination contract: route(n, n) is empty, hop_count is 0,
//     hop_histogram[0] == 1, and the mean recomputed from the histogram
//     equals average_hops bit-exactly
//   * route validator: deterministic, starts at the source's crossbar,
//     ends at the destination's, every consecutive pair shares a cable,
//     loop-free, and never shorter than the BFS floor of the fabric
//   * hop_count, which walks the routing rule without building a route,
//     is the route's length
// ---------------------------------------------------------------------------

/// The parameter is the tree's CU count; 17 CUs is FatTree::roadrunner().
constexpr int kFullMachineCus = 17;

class FatTreeContract : public ::testing::TestWithParam<int> {
 protected:
  FatTreeContract() : t_(build(GetParam())) {}

  static FatTree build(int cus) {
    if (cus == kFullMachineCus) return FatTree::roadrunner();
    FatTreeParams p;
    p.cu_count = cus;
    return FatTree::build(p);
  }

  /// A handful of deterministic probe nodes spread over the machine.
  std::vector<NodeId> probes() const {
    const int n = t_.node_count();
    std::vector<NodeId> out;
    for (int v : {0, 1, n / 3, n / 2, n - 2, n - 1}) out.push_back(NodeId{v});
    return out;
  }

  /// Every `n / parts`-th node.
  std::vector<NodeId> strided(int parts) const {
    const int n = t_.node_count();
    std::vector<NodeId> out;
    for (int v = 0; v < n; v += std::max(1, n / parts)) out.push_back(NodeId{v});
    return out;
  }

  const FatTree t_;
};

TEST_P(FatTreeContract, SelfDestinationIsEmptyRouteZeroHops) {
  for (const NodeId n : probes()) {
    EXPECT_TRUE(t_.route(n, n).empty()) << "node " << n.v;
    EXPECT_EQ(t_.hop_count(n, n), 0) << "node " << n.v;
  }
}

TEST_P(FatTreeContract, HistogramCountsSelfExactlyOnce) {
  for (const NodeId n : probes()) {
    const std::vector<int> hist = t_.hop_histogram(n);
    ASSERT_FALSE(hist.empty()) << "node " << n.v;
    EXPECT_EQ(hist[0], 1) << "node " << n.v;
  }
}

TEST_P(FatTreeContract, MeanFromHistogramMatchesAverageHopsBitExactly) {
  for (const NodeId n : probes()) {
    const std::vector<int> hist = t_.hop_histogram(n);
    std::int64_t total = 0;
    std::int64_t count = 0;
    for (std::size_t h = 0; h < hist.size(); ++h) {
      total += static_cast<std::int64_t>(h) * hist[h];
      count += hist[h];
    }
    EXPECT_EQ(count, t_.node_count()) << "node " << n.v;
    const double from_hist =
        static_cast<double>(total) / static_cast<double>(count);
    const double reported = t_.average_hops(n);
    EXPECT_EQ(std::memcmp(&from_hist, &reported, sizeof(double)), 0)
        << "node " << n.v << ": histogram mean " << from_hist
        << " vs average_hops " << reported;
  }
}

TEST_P(FatTreeContract, RoutesAreValidWalksOfTheFabric) {
  // A sweep of sources and destinations on the reduced trees; the probe
  // pairs on the full machine, which the Routing tests above cover.
  const bool full_machine = GetParam() == kFullMachineCus;
  const std::vector<NodeId> srcs = full_machine ? probes() : strided(6);
  const std::vector<NodeId> dsts = full_machine ? probes() : strided(48);
  for (const NodeId src : srcs) {
    const std::vector<int> bfs = t_.bfs_crossbar_distance(t_.node_xbar(src));
    for (const NodeId dst : dsts) {
      if (dst == src) continue;
      const int s = src.v;
      const int d = dst.v;
      const std::vector<int> route = t_.route(src, dst);
      ASSERT_FALSE(route.empty()) << s << "->" << d;
      EXPECT_EQ(route.front(), t_.node_xbar(src)) << s << "->" << d;
      EXPECT_EQ(route.back(), t_.node_xbar(dst)) << s << "->" << d;
      std::vector<int> seen = route;
      std::sort(seen.begin(), seen.end());
      EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
          << s << "->" << d << ": crossbar repeats (loop)";
      for (std::size_t i = 0; i + 1 < route.size(); ++i)
        ASSERT_TRUE(t_.adjacent(route[i], route[i + 1]))
            << s << "->" << d << ": no cable " << route[i] << "-"
            << route[i + 1];
      // Never beat physics: the BFS floor counts crossbars visited, with
      // the start counting as one, exactly like the route's length.
      const int floor = bfs[static_cast<std::size_t>(t_.node_xbar(dst))];
      ASSERT_GT(floor, 0) << s << "->" << d;
      EXPECT_GE(static_cast<int>(route.size()), floor) << s << "->" << d;
    }
  }
}

TEST_P(FatTreeContract, HopCountIsRouteLength) {
  for (const NodeId src : probes())
    for (const NodeId dst : probes())
      EXPECT_EQ(t_.hop_count(src, dst),
                static_cast<int>(t_.route(src, dst).size()))
          << src.v << "->" << dst.v;
}

TEST_P(FatTreeContract, RoutingIsDeterministic) {
  const int n = t_.node_count();
  for (const NodeId src : probes()) {
    const NodeId dst{(src.v + n / 2 + 1) % n};
    if (dst == src) continue;
    const std::vector<int> first = t_.route(src, dst);
    for (int rep = 0; rep < 3; ++rep)
      EXPECT_EQ(t_.route(src, dst), first) << src.v << "->" << dst.v;
  }
}

INSTANTIATE_TEST_SUITE_P(FatTrees, FatTreeContract,
                         ::testing::Values(3, 13, kFullMachineCus),
                         [](const auto& param_info) {
                           return param_info.param == kFullMachineCus
                                      ? std::string("roadrunner")
                                      : "cu" + std::to_string(param_info.param);
                         });

TEST(TopologyHopCount, FatTreeCountMatchesTheRouteFromEveryCu) {
  // The fat tree counts hops by walking its routing rule without
  // building the route.  Check every destination of the full machine
  // from one source per CU (a different lower crossbar and port each).
  const FatTree& t = full();
  ASSERT_EQ(t.node_count(), 3060);
  const int per_cu = t.params().compute_nodes_per_cu;
  for (int cu = 0; cu < t.cu_count(); ++cu) {
    const NodeId src{cu * per_cu + (cu * 11) % per_cu};
    for (int d = 0; d < t.node_count(); ++d) {
      const NodeId dst{d};
      ASSERT_EQ(t.hop_count(src, dst), static_cast<int>(t.route(src, dst).size()))
          << src.v << "->" << d;
    }
  }
}

// ---------------------------------------------------------------------------
// Table I reproduction
// ---------------------------------------------------------------------------

TEST(TableI, HopHistogramFromNode0) {
  const FatTree& t = full();
  const std::vector<int> hist = t.hop_histogram(NodeId{0});
  ASSERT_GE(hist.size(), 8u);
  EXPECT_EQ(hist[0], 1);            // self
  EXPECT_EQ(hist[1], 7);            // same crossbar
  EXPECT_EQ(hist[3], 172 + 88);     // same CU + CUs 2-12 same crossbar
  EXPECT_EQ(hist[5], 1892 + 40);    // CUs 2-12 diff crossbar + CUs 13-17 same
  EXPECT_EQ(hist[7], 860);          // CUs 13-17 different crossbar
  EXPECT_EQ(hist[2], 0);
  EXPECT_EQ(hist[4], 0);
  EXPECT_EQ(hist[6], 0);
}

TEST(TableI, AverageHopsIs538) {
  EXPECT_NEAR(full().average_hops(NodeId{0}), 5.38, 0.005);
}

TEST(TableI, HistogramHoldsForOtherFirstSideSources) {
  // The hop-class structure is source-independent within CUs 1-12.
  const FatTree& t = full();
  const std::vector<int> hist = t.hop_histogram(NodeId{180 * 7 + 42});
  EXPECT_EQ(hist[1], 7);
  EXPECT_EQ(hist[3], 260);
  EXPECT_EQ(hist[7], 860);
}

TEST(TableI, LastFiveCuSourceSeesMirroredClasses) {
  // From a CU 13-17 node: CUs 1-12 are the "far side" (through the middle
  // level); the other four last-side CUs are near.
  const FatTree& t = full();
  const std::vector<int> hist = t.hop_histogram(NodeId{180 * 14});
  EXPECT_EQ(hist[0], 1);
  EXPECT_EQ(hist[1], 7);
  // same CU (172) + 4 last-side CUs same crossbar (32): 3 hops
  EXPECT_EQ(hist[3], 172 + 32);
  // last-side diff crossbar (4*172) + first-side same crossbar (12*8): 5 hops
  EXPECT_EQ(hist[5], 4 * 172 + 96);
  // first-side different crossbar: 12 * 172 = 2064 at 7 hops
  EXPECT_EQ(hist[7], 2064);
}

// ---------------------------------------------------------------------------
// Custom (reduced) topologies
// ---------------------------------------------------------------------------

TEST(CustomTopology, TwoCuSystemHasNoSevenHopRoutes) {
  TopologyParams p;
  p.cu_count = 2;
  const FatTree t = FatTree::build(p);
  EXPECT_EQ(t.node_count(), 360);
  const std::vector<int> hist = t.hop_histogram(NodeId{0});
  EXPECT_EQ(hist.size(), 6u);  // max 5 hops when all CUs are on the L1 side
  EXPECT_EQ(hist[5], 172);     // other CU, different crossbar
  EXPECT_EQ(hist[3], 172 + 8); // same CU + other CU same crossbar
}

TEST(CustomTopology, ThirteenCuSystemHasBothSides) {
  TopologyParams p;
  p.cu_count = 13;
  const FatTree t = FatTree::build(p);
  const std::vector<int> hist = t.hop_histogram(NodeId{0});
  ASSERT_GE(hist.size(), 8u);
  EXPECT_EQ(hist[7], 172);  // exactly one far-side CU
  EXPECT_EQ(hist[5], 11 * 172 + 8);
}

// ---------------------------------------------------------------------------
// Masked BFS (the floor used by the degraded-routing audit)
// ---------------------------------------------------------------------------

TEST(MaskedBfs, MatchesUnmaskedWhenNothingIsFailed) {
  const FatTree& t = full();  // shared fixture; don't rebuild 3,060 nodes
  const std::vector<char> none(static_cast<std::size_t>(t.crossbar_count()), 0);
  const auto all_ok = [](int, int) { return true; };
  EXPECT_EQ(t.bfs_crossbar_distance(0), t.bfs_crossbar_distance(0, none, all_ok));
}

TEST(MaskedBfs, FailedCrossbarsAreNotTraversed) {
  const FatTree& t = full();  // shared fixture; don't rebuild 3,060 nodes
  // Cut every upper crossbar of CU 0: its lower crossbars can no longer
  // reach each other (or anything else).
  std::vector<char> failed(static_cast<std::size_t>(t.crossbar_count()), 0);
  for (int u = 0; u < t.params().upper_xbars_per_cu; ++u)
    failed[static_cast<std::size_t>(t.cu_upper_id(0, u))] = 1;
  const auto all_ok = [](int, int) { return true; };
  const std::vector<int> dist =
      t.bfs_crossbar_distance(t.cu_lower_id(0, 0), failed, all_ok);
  EXPECT_EQ(dist[static_cast<std::size_t>(t.cu_lower_id(0, 0))], 1);
  EXPECT_EQ(dist[static_cast<std::size_t>(t.cu_upper_id(0, 0))], -1);
  // The sibling lower crossbar is only reachable the long way round: up a
  // switch, down into another CU, across its fat tree, and back (7 vs the
  // healthy 3).
  EXPECT_EQ(dist[static_cast<std::size_t>(t.cu_lower_id(0, 1))], 7);
  // The inter-CU fabric is still reachable through the uplinks.
  EXPECT_GT(dist[static_cast<std::size_t>(t.cu_lower_id(1, 0))], 0);
}

// ---------------------------------------------------------------------------
// Builder invariants: the fat-tree wiring preconditions
// ---------------------------------------------------------------------------

using BuilderDeath = ::testing::Test;

TEST(BuilderDeath, FatTreeRejectsIndivisibleSwitchCount) {
  FatTreeParams p;
  p.inter_cu_switches = 6;  // not divisible by 4 uplinks
  EXPECT_DEATH((void)FatTree::build(p), "inter_cu_switches");
}

TEST(BuilderDeath, FatTreeRejectsMismatchedLevelSize) {
  FatTreeParams p;
  p.upper_xbars_per_cu = 10;  // level size is lower/stride = 12
  EXPECT_DEATH((void)FatTree::build(p), "level_size");
}

// ---------------------------------------------------------------------------
// Degraded-fabric contracts: a failed start crossbar BFS-resolves to -1
// everywhere, and the route audit rejects paths whose first or last
// crossbar is failed
// ---------------------------------------------------------------------------

TEST(DegradedContract, FailedBfsStartKeepsMinusOneOnFatTree) {
  const FatTree& t = full();
  const int start = t.cu_lower_id(0, 0);
  std::vector<char> failed(static_cast<std::size_t>(t.crossbar_count()), 0);
  failed[static_cast<std::size_t>(start)] = 1;
  const std::vector<int> dist = t.bfs_crossbar_distance(start, failed, {});
  EXPECT_EQ(dist[static_cast<std::size_t>(start)], -1);  // never 0
  for (int d : dist) EXPECT_EQ(d, -1);
}

TEST(DegradedContract, AuditRejectsFailedFirstOrLastCrossbarOnFatTree) {
  const FatTree& t = full();
  const NodeId src{0};
  const NodeId dst{180 * 3 + 17};  // cross-CU
  const std::vector<int> healthy = t.route(src, dst);
  ASSERT_GE(healthy.size(), 2u);
  {
    DegradedTopology d(t);
    EXPECT_TRUE(path_valid(d, src, dst, healthy));
    d.fail_crossbar(healthy.front());
    EXPECT_FALSE(path_valid(d, src, dst, healthy));
  }
  {
    DegradedTopology d(t);
    d.fail_crossbar(healthy.back());
    EXPECT_FALSE(path_valid(d, src, dst, healthy));
  }
  {
    // A one-element path (same-crossbar neighbors) has no interior cable
    // for link_usable to vet -- the endpoint check must still fire.
    DegradedTopology d(t);
    const std::vector<int> self_path = {t.node_xbar(src)};
    EXPECT_TRUE(path_valid(d, src, NodeId{1}, self_path));
    d.fail_crossbar(self_path.front());
    EXPECT_FALSE(path_valid(d, src, NodeId{1}, self_path));
  }
}

TEST(CustomTopology, AverageHopsGrowsWithCuCount) {
  TopologyParams small;
  small.cu_count = 4;
  TopologyParams big;
  big.cu_count = 17;
  const double avg_small = FatTree::build(small).average_hops(NodeId{0});
  const double avg_big = FatTree::build(big).average_hops(NodeId{0});
  EXPECT_LT(avg_small, avg_big);
}

}  // namespace
}  // namespace rr::topo
