// Topology-zoo contract suite: the routing invariants every machine of
// the zoo (topo/machines.hpp) must satisfy, run against each preset
// through one shared parameterized fixture.
//
//   * self-destination contract: route(n, n) is empty, hop_count is 0,
//     hop_histogram[0] == 1, and the mean recomputed from the histogram
//     equals average_hops bit-exactly
//   * route validator: deterministic, starts at the source's crossbar,
//     ends at the destination's, every consecutive pair shares a cable,
//     loop-free, and never shorter than the BFS floor of the fabric
//   * partition map: total and single-valued over [0, cu_count()), and
//     the derived cu_partition_graph keeps a strictly positive lookahead
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "comm/fabric.hpp"
#include "sim/parallel_simulator.hpp"
#include "topo/machines.hpp"
#include "topo/topology.hpp"

namespace {

using namespace rr;

std::vector<std::string> zoo_names() {
  std::vector<std::string> names;
  for (const topo::MachineSpec& m : topo::machine_zoo()) names.push_back(m.name);
  return names;
}

class ZooContract : public ::testing::TestWithParam<std::string> {
 protected:
  ZooContract() : t_(topo::make_machine(GetParam(), /*small=*/true)) {}

  /// A handful of deterministic probe nodes spread over the machine.
  std::vector<topo::NodeId> probes() const {
    const int n = t_->node_count();
    std::vector<topo::NodeId> out;
    for (int v : {0, 1, n / 3, n / 2, n - 2, n - 1})
      if (v >= 0 && v < n) out.push_back(topo::NodeId{v});
    return out;
  }

  std::unique_ptr<topo::Topology> t_;
};

// ---------------------------------------------------------------------------
// Satellite: the self-destination contract, pinned for every machine.
// ---------------------------------------------------------------------------

TEST_P(ZooContract, SelfDestinationIsEmptyRouteZeroHops) {
  for (const topo::NodeId n : probes()) {
    EXPECT_TRUE(t_->route(n, n).empty()) << "node " << n.v;
    EXPECT_EQ(t_->hop_count(n, n), 0) << "node " << n.v;
  }
}

TEST_P(ZooContract, HistogramCountsSelfExactlyOnce) {
  for (const topo::NodeId n : probes()) {
    const std::vector<int> hist = t_->hop_histogram(n);
    ASSERT_FALSE(hist.empty()) << "node " << n.v;
    EXPECT_EQ(hist[0], 1) << "node " << n.v;
  }
}

TEST_P(ZooContract, MeanFromHistogramMatchesAverageHopsBitExactly) {
  for (const topo::NodeId n : probes()) {
    const std::vector<int> hist = t_->hop_histogram(n);
    std::int64_t total = 0;
    std::int64_t count = 0;
    for (std::size_t h = 0; h < hist.size(); ++h) {
      total += static_cast<std::int64_t>(h) * hist[h];
      count += hist[h];
    }
    EXPECT_EQ(count, t_->node_count()) << "node " << n.v;
    const double from_hist =
        static_cast<double>(total) / static_cast<double>(count);
    const double reported = t_->average_hops(n);
    EXPECT_EQ(std::memcmp(&from_hist, &reported, sizeof(double)), 0)
        << "node " << n.v << ": histogram mean " << from_hist
        << " vs average_hops " << reported;
  }
}

// ---------------------------------------------------------------------------
// Satellite: topology-generic route validator.
// ---------------------------------------------------------------------------

TEST_P(ZooContract, RoutesAreValidWalksOfTheFabric) {
  const int n = t_->node_count();
  const int src_stride = std::max(1, n / 6);
  const int dst_stride = std::max(1, n / 48);
  for (int s = 0; s < n; s += src_stride) {
    const topo::NodeId src{s};
    const std::vector<int> bfs = t_->bfs_crossbar_distance(t_->node_xbar(src));
    for (int d = 0; d < n; d += dst_stride) {
      if (d == s) continue;
      const topo::NodeId dst{d};
      const std::vector<int> route = t_->route(src, dst);
      ASSERT_FALSE(route.empty()) << s << "->" << d;
      EXPECT_EQ(route.front(), t_->node_xbar(src)) << s << "->" << d;
      EXPECT_EQ(route.back(), t_->node_xbar(dst)) << s << "->" << d;
      std::vector<int> seen = route;
      std::sort(seen.begin(), seen.end());
      EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
          << s << "->" << d << ": crossbar repeats (loop)";
      for (std::size_t i = 0; i + 1 < route.size(); ++i)
        ASSERT_TRUE(t_->adjacent(route[i], route[i + 1]))
            << s << "->" << d << ": no cable " << route[i] << "-"
            << route[i + 1];
      // Never beat physics: the BFS floor counts crossbars visited, with
      // the start counting as one, exactly like the route's length.
      const int floor = bfs[static_cast<std::size_t>(t_->node_xbar(dst))];
      ASSERT_GT(floor, 0) << s << "->" << d;
      EXPECT_GE(static_cast<int>(route.size()), floor) << s << "->" << d;
    }
  }
}

TEST_P(ZooContract, RoutingIsDeterministic) {
  const int n = t_->node_count();
  for (const topo::NodeId src : probes()) {
    const topo::NodeId dst{(src.v + n / 2 + 1) % n};
    if (dst == src) continue;
    const std::vector<int> first = t_->route(src, dst);
    for (int rep = 0; rep < 3; ++rep)
      EXPECT_EQ(t_->route(src, dst), first) << src.v << "->" << dst.v;
  }
}

// ---------------------------------------------------------------------------
// Partition map + derived parallel-DES lookahead.
// ---------------------------------------------------------------------------

TEST_P(ZooContract, PartitionMapIsTotalAndSingleValued) {
  const int cus = t_->cu_count();
  ASSERT_GE(cus, 1);
  std::vector<int> population(static_cast<std::size_t>(cus), 0);
  for (int v = 0; v < t_->node_count(); ++v) {
    const int cu = t_->cu_of(topo::NodeId{v});
    ASSERT_GE(cu, 0) << "node " << v;
    ASSERT_LT(cu, cus) << "node " << v;
    ++population[static_cast<std::size_t>(cu)];
  }
  for (int cu = 0; cu < cus; ++cu)
    EXPECT_GT(population[static_cast<std::size_t>(cu)], 0) << "empty cu " << cu;
}

TEST_P(ZooContract, PartitionGraphKeepsStrictlyPositiveLookahead) {
  const comm::FabricModel fabric(*t_);
  const sim::PartitionGraph g = fabric.cu_partition_graph();
  ASSERT_EQ(g.partitions(), t_->cu_count());
  if (g.partitions() == 1) {
    EXPECT_EQ(g.lookahead_ps(), sim::PartitionGraph::kNoLink);
    return;
  }
  for (int a = 0; a < g.partitions(); ++a)
    for (int b = 0; b < g.partitions(); ++b) {
      if (a == b) continue;
      ASSERT_TRUE(g.has_link(a, b)) << a << "->" << b;
      EXPECT_GT(g.min_delay_ps(a, b), 0) << a << "->" << b;
    }
  EXPECT_GT(g.lookahead_ps(), 0);
  EXPECT_LT(g.lookahead_ps(), sim::PartitionGraph::kNoLink);
}

INSTANTIATE_TEST_SUITE_P(Zoo, ZooContract, ::testing::ValuesIn(zoo_names()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
