#include "comm/path.hpp"

#include <algorithm>

#include "arch/calibration.hpp"
#include "util/expect.hpp"

namespace rr::comm {

namespace cal = rr::arch::cal;

namespace {
/// Scale a channel's bandwidths down by a contention divisor.
ChannelParams contended(ChannelParams p, double divisor) {
  RR_EXPECTS(divisor >= 1.0);
  p.eager_bandwidth = p.eager_bandwidth / divisor;
  p.rendezvous_bandwidth = p.rendezvous_bandwidth / divisor;
  return p;
}

/// The SPE<->PPE handoff measured at 0.12 us per side (Fig. 6).
ChannelParams spe_ppe_local() {
  ChannelParams p;
  p.name = "SPE<->PPE (EIB local)";
  p.latency = cal::kAnchorSpeLocalLeg;
  p.eager_bandwidth = Bandwidth::gb_per_sec(20.0);
  p.rendezvous_bandwidth = Bandwidth::gb_per_sec(23.5);
  p.eager_threshold = DataSize::kib(16);
  p.rendezvous_overhead = Duration::zero();
  p.duplex_efficiency = 0.9;
  return p;
}

}  // namespace

Duration Stage::serialization_uni(DataSize n) const {
  return channel.one_way(n) - channel.params().latency;
}

Duration Stage::serialization_bidir(DataSize n) const {
  return channel.one_way_bidirectional(n) - channel.params().latency;
}

PathModel::PathModel(std::vector<Stage> stages, RelayMode mode)
    : stages_(std::move(stages)), mode_(mode) {
  RR_EXPECTS(!stages_.empty());
}

Duration PathModel::zero_byte_latency() const {
  Duration t = Duration::zero();
  for (const auto& s : stages_) t += s.latency();
  return t;
}

Duration PathModel::one_way(DataSize n, bool bidirectional) const {
  Duration t = zero_byte_latency();
  if (n.b() == 0) return t;
  if (mode_ == RelayMode::kStoreAndForward) {
    for (const auto& s : stages_)
      t += bidirectional ? s.serialization_bidir(n) : s.serialization_uni(n);
  } else {
    // Fragments of later stages overlap earlier ones: the slowest stage
    // governs the stream.
    Duration bottleneck = Duration::zero();
    for (const auto& s : stages_)
      bottleneck = std::max(
          bottleneck, bidirectional ? s.serialization_bidir(n) : s.serialization_uni(n));
    t += bottleneck;
  }
  return t;
}

Bandwidth PathModel::uni_bandwidth(DataSize n) const {
  RR_EXPECTS(n.b() > 0);
  return achieved_bandwidth(n, one_way(n, false));
}

Bandwidth PathModel::bidir_bandwidth_sum(DataSize n) const {
  RR_EXPECTS(n.b() > 0);
  return achieved_bandwidth(n, one_way(n, true)) * 2.0;
}

std::vector<std::pair<std::string, Duration>> PathModel::latency_breakdown() const {
  std::vector<std::pair<std::string, Duration>> out;
  out.reserve(stages_.size());
  for (const auto& s : stages_) out.emplace_back(s.name, s.latency());
  return out;
}

ChannelParams relay_copy() {
  ChannelParams p;
  p.name = "Opteron relay copy (unpinned buffers)";
  p.latency = Duration::zero();  // counted inside the DaCS/MPI latencies
  // ~4.3 GB/s of aggregate copy traffic through the 5.41 GB/s Opteron
  // memory system, i.e. ~1.07 GB/s per Cell flow when all four relay.
  p.eager_bandwidth = Bandwidth::mb_per_sec(900);
  p.rendezvous_bandwidth = Bandwidth::mb_per_sec(1072);
  p.eager_threshold = DataSize::kib(16);
  p.rendezvous_overhead = Duration::zero();
  p.duplex_efficiency = 0.70;
  return p;
}

PathModel cell_to_cell_internode(int hops, RelayMode mode) {
  std::vector<Stage> stages;
  stages.push_back(Stage{"SPE to PPE (local)", ChannelModel(spe_ppe_local())});
  stages.push_back(Stage{"Cell to Opteron (DaCS over PCIe)",
                         ChannelModel(dacs_pcie())});
  stages.push_back(Stage{"Opteron to Opteron (MPI over InfiniBand)",
                         ChannelModel(with_hops(mpi_infiniband(true), hops))});
  stages.push_back(Stage{"Opteron to Cell (DaCS over PCIe)",
                         ChannelModel(dacs_pcie())});
  stages.push_back(Stage{"PPE to SPE (local)", ChannelModel(spe_ppe_local())});
  return PathModel(std::move(stages), mode);
}

PathModel ppe_opteron_intranode() {
  std::vector<Stage> stages;
  stages.push_back(Stage{"PPE<->Opteron (DaCS over PCIe)",
                         ChannelModel(dacs_pcie())});
  return PathModel(std::move(stages), RelayMode::kPipelined);
}

PathModel cell_to_cell_allpairs(int hops) {
  std::vector<Stage> stages;
  stages.push_back(Stage{"Cell to Opteron (DaCS over PCIe)",
                         ChannelModel(contended(dacs_pcie(), 1.0))});
  stages.push_back(Stage{"Opteron relay copy",
                         ChannelModel(contended(relay_copy(), 4.0))});
  stages.push_back(Stage{"Opteron to Opteron (MPI over InfiniBand)",
                         ChannelModel(contended(with_hops(mpi_infiniband(true), hops),
                                                4.0))});
  stages.push_back(Stage{"Opteron to Cell (DaCS over PCIe)",
                         ChannelModel(contended(dacs_pcie(), 1.0))});
  return PathModel(std::move(stages), RelayMode::kPipelined);
}

PathModel opteron_mpi_internode(bool sender_near, bool receiver_near, int hops) {
  // A transfer touching a far core pays the extra HyperTransport crossing
  // on that side; a mixed pair lands in between (Fig. 8's third curve).
  std::vector<Stage> stages;
  if (sender_near && receiver_near) {
    stages.push_back(Stage{"MPI/IB (cores 1,3)",
                           ChannelModel(with_hops(mpi_infiniband(true), hops))});
  } else if (!sender_near && !receiver_near) {
    stages.push_back(Stage{"MPI/IB (cores 0,2)",
                           ChannelModel(with_hops(mpi_infiniband(false), hops))});
  } else {
    ChannelParams mixed = mpi_infiniband(true);
    mixed.name = "MPI/IB (mixed core pair)";
    const double near_bw = mpi_infiniband(true).rendezvous_bandwidth.mbps();
    const double far_bw = mpi_infiniband(false).rendezvous_bandwidth.mbps();
    mixed.rendezvous_bandwidth =
        Bandwidth::mb_per_sec(2.0 / (1.0 / near_bw + 1.0 / far_bw));
    stages.push_back(Stage{"MPI/IB (core 0 to core 1)",
                           ChannelModel(with_hops(mixed, hops))});
  }
  return PathModel(std::move(stages), RelayMode::kPipelined);
}

}  // namespace rr::comm
