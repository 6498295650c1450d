// The fabric's vocabulary: compute-node ids and crossbars.  The fabric
// itself -- Roadrunner's fat tree of 24-port crossbars, its routing and
// its hop queries -- is topo::FatTree (fat_tree.hpp).
#pragma once

#include <cstdint>
#include <vector>

namespace rr::topo {

/// Global compute-node rank, 0 .. node_count()-1 (node = triblade).
struct NodeId {
  int v = -1;
  friend constexpr auto operator<=>(NodeId, NodeId) = default;
};

enum class XbarKind : std::uint8_t {
  kCuLower,      ///< fat tree: CU switch, node-facing level
  kCuUpper,      ///< fat tree: CU switch, spine level
  kInterCuL1,    ///< fat tree: inter-CU switch, first level (CUs 1-12)
  kInterCuMid,   ///< fat tree: inter-CU switch, middle level
  kInterCuL3,    ///< fat tree: inter-CU switch, last level (CUs 13-17)
};

/// One crossbar of the fabric.
struct Crossbar {
  XbarKind kind{};
  int cu = -1;      ///< owning CU, else -1
  int sw = -1;      ///< owning inter-CU switch, else -1
  int index = -1;   ///< index within its level
  std::vector<int> links;           ///< adjacent crossbar ids (sorted)
  std::vector<int> compute_nodes;   ///< attached compute NodeId values
  int io_nodes = 0;                 ///< attached I/O node count
};

class FatTree;
class DegradedTopology;

/// The fat tree's name from when a fabric was an interface.  Nothing in
/// the library, benches, examples or tests uses it.  It stays only because
/// the benchmark's sources (perfbench/cpp/des.hpp) include this header and
/// name topo::Topology, and they change only together with the benchmark,
/// whose next revision deletes this alias (ROADMAP.md item 8).
using Topology = FatTree;

}  // namespace rr::topo
