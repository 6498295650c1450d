// Whole-fabric MPI timing over the explicit topology (Fig. 10): zero-byte
// latency from any rank to any node (software base + 220 ns per crossbar
// hop) and large-message bandwidth under default vs. pinned OpenMPI
// configurations.
#pragma once

#include <vector>

#include "comm/channel.hpp"
#include "topo/fat_tree.hpp"

namespace rr::comm {

struct LatencySweepPoint {
  int node = 0;
  int hops = 0;
  Duration latency;
};

class FabricModel {
 public:
  explicit FabricModel(const topo::FatTree& topo);

  /// Zero-byte MPI latency between two compute nodes.
  Duration zero_byte_latency(topo::NodeId src, topo::NodeId dst) const;

  /// The Fig. 10 experiment: rank 0 pings every other node in sequence.
  std::vector<LatencySweepPoint> latency_sweep(topo::NodeId src) const;

  /// Achieved bandwidth for an n-byte message (default vs pinned buffers);
  /// hop count affects only latency, so 1 MB transfers land at ~980 MB/s
  /// default and ~1.6 GB/s pinned regardless of distance.
  Bandwidth large_message_bandwidth(topo::NodeId src, topo::NodeId dst, DataSize n,
                                    bool pinned) const;

  /// Mean large-message bandwidth from `src` to every other node.
  Bandwidth average_bandwidth(topo::NodeId src, DataSize n, bool pinned) const;

  const topo::FatTree& topology() const { return *topo_; }

 private:
  const topo::FatTree* topo_;
  ChannelModel default_mpi_;
  ChannelModel pinned_mpi_;
};

/// Default-parameter OpenMPI (unregistered buffers, copy-in/copy-out):
/// ~980 MB/s at 1 MB (Section IV.C).
ChannelParams mpi_infiniband_default_params();

}  // namespace rr::comm
