// Multi-stage communication paths (Figs. 6, 7, 9).
//
// A Cell-to-Cell message crosses several stages: the EIB to the PPE, DaCS
// over PCIe to the Opteron, MPI over InfiniBand to the peer Opteron, and
// back down.  Early Roadrunner software forwarded messages through relay
// buffers, so a path can be evaluated either store-and-forward (each stage
// completes before the next starts -- the measured early-software
// behaviour) or pipelined (fragments overlap across stages -- the mature
// behaviour the paper's model projects).
#pragma once

#include <string>
#include <vector>

#include "comm/channel.hpp"

namespace rr::comm {

struct Stage {
  std::string name;
  ChannelModel channel;
  /// How many concurrent flows share this stage's bandwidth in the
  /// scenario being modeled (e.g. 4 Cell flows share one IB HCA).
  double contention_divisor = 1.0;

  Duration serialization_uni(DataSize n) const;
  Duration serialization_bidir(DataSize n) const;
  Duration latency() const { return channel.params().latency; }
};

enum class RelayMode { kStoreAndForward, kPipelined };

class PathModel {
 public:
  PathModel(std::vector<Stage> stages, RelayMode mode);

  Duration zero_byte_latency() const;
  Duration one_way(DataSize n, bool bidirectional = false) const;
  Bandwidth uni_bandwidth(DataSize n) const;
  Bandwidth bidir_bandwidth_sum(DataSize n) const;

  /// Per-stage latency contributions of a zero-byte message (Fig. 6).
  std::vector<std::pair<std::string, Duration>> latency_breakdown() const;

  const std::vector<Stage>& stages() const { return stages_; }
  RelayMode mode() const { return mode_; }

 private:
  std::vector<Stage> stages_;
  RelayMode mode_;
};

// ---------------------------------------------------------------------------
// Scenario factories
// ---------------------------------------------------------------------------

/// The Opteron-side relay copy between PCIe and InfiniBand (unpinned
/// buffers through the Opteron memory system).  Four Cell flows per node
/// share it in the all-pairs scenario.
ChannelParams relay_copy();

/// Fig. 6: zero-byte Cell -> Opteron -> Opteron -> Cell path, including the
/// 0.12 us SPE<->PPE legs; `hops` crossbar hops inside the MPI leg.
PathModel cell_to_cell_internode(int hops = 1,
                                 RelayMode mode = RelayMode::kStoreAndForward);

/// Fig. 7 intranode: PPE <-> Opteron over DaCS/PCIe (single stage).
PathModel ppe_opteron_intranode();

/// Fig. 7 internode: worst pair with all four Cell-Opteron pairs in use
/// (relay copy and HCA contention included), pipelined fragments.
PathModel cell_to_cell_allpairs(int hops = 3);

/// Fig. 8 / 9: plain Opteron <-> Opteron MPI over IB.  `sender_near` /
/// `receiver_near` select HCA proximity of the two cores.
PathModel opteron_mpi_internode(bool sender_near, bool receiver_near, int hops = 3);

}  // namespace rr::comm
