// Where each rank of a parallel run executes on a triblade (Section II.A):
// ranks fill a socket, sockets fill a node, and ranks are numbered
// row-major, so rank r runs on node r / ranks_per_node().  The two
// presets are the usage models of Section III that place ranks: every SPE
// a rank (the CML runs), or every Opteron core a rank (the Opteron-only
// runs of Figs. 13-14).  tests/arch_test.cpp ties both to make_triblade().
#pragma once

namespace rr::arch {

struct Mapping {
  int sockets_per_node = 1;
  int ranks_per_socket = 1;

  constexpr int ranks_per_node() const { return sockets_per_node * ranks_per_socket; }
  constexpr int node_of(int rank) const { return rank / ranks_per_node(); }
  /// The socket within its node.
  constexpr int socket_of(int rank) const {
    return rank / ranks_per_socket % sockets_per_node;
  }
  /// Nodes that hold `ranks` ranks.
  constexpr int nodes_for(int ranks) const {
    return (ranks + ranks_per_node() - 1) / ranks_per_node();
  }
};

/// SPE-centric: 4 PowerXCell 8i per node (two QS22), 8 SPE ranks each.
inline constexpr Mapping kSpeCentric{4, 8};
/// Host-only: 2 Opteron 2210 sockets per node (the LS21), 2 core ranks each.
inline constexpr Mapping kHostOnly{2, 2};

}  // namespace rr::arch
