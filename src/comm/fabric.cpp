#include "comm/fabric.hpp"

#include "arch/calibration.hpp"
#include "util/expect.hpp"

namespace rr::comm {

namespace cal = rr::arch::cal;

ChannelParams mpi_infiniband_default_params() {
  ChannelParams p = mpi_infiniband(true);
  p.name = "Open MPI / IB 4x DDR (default parameters)";
  // Without registered buffers OpenMPI stages data through bounce buffers:
  // 1 MB messages average 980 MB/s across the machine (Section IV.C).
  p.rendezvous_bandwidth = Bandwidth::mb_per_sec(1000);
  p.rendezvous_overhead = Duration::microseconds(2.0);
  return p;
}

FabricModel::FabricModel(const topo::FatTree& topo)
    : topo_(&topo),
      default_mpi_(mpi_infiniband_default_params()),
      pinned_mpi_(mpi_infiniband_pinned()) {}

Duration FabricModel::zero_byte_latency(topo::NodeId src, topo::NodeId dst) const {
  if (src == dst) return Duration::zero();
  return zero_byte_latency(topo_->hop_count(src, dst));
}

Duration FabricModel::zero_byte_latency(int hops) {
  return kMpiBaseLatency + cal::kSwitchHopLatency * hops;
}

std::vector<LatencySweepPoint> FabricModel::latency_sweep(topo::NodeId src) const {
  std::vector<LatencySweepPoint> out;
  out.reserve(topo_->node_count());
  for (int d = 0; d < topo_->node_count(); ++d) {
    if (d == src.v) continue;
    LatencySweepPoint pt;
    pt.node = d;
    pt.hops = topo_->hop_count(src, topo::NodeId{d});
    pt.latency = zero_byte_latency(pt.hops);
    out.push_back(pt);
  }
  return out;
}

Bandwidth FabricModel::bandwidth_over(DataSize n, Duration one_way, int hops) {
  return achieved_bandwidth(n, one_way + cal::kSwitchHopLatency * hops);
}

Bandwidth FabricModel::large_message_bandwidth(topo::NodeId src, topo::NodeId dst,
                                               DataSize n, bool pinned) const {
  RR_EXPECTS(n.b() > 0);
  RR_EXPECTS(!(src == dst));
  const ChannelModel& ch = pinned ? pinned_mpi_ : default_mpi_;
  return bandwidth_over(n, ch.one_way(n), topo_->hop_count(src, dst));
}

Bandwidth FabricModel::average_bandwidth(topo::NodeId src, DataSize n,
                                         bool pinned) const {
  RR_EXPECTS(n.b() > 0);
  // The channel time is the same to every node; only the hops differ.
  const Duration one_way = (pinned ? pinned_mpi_ : default_mpi_).one_way(n);
  double sum = 0.0;
  int count = 0;
  for (int d = 0; d < topo_->node_count(); ++d) {
    if (d == src.v) continue;
    sum += bandwidth_over(n, one_way, topo_->hop_count(src, topo::NodeId{d})).bps();
    ++count;
  }
  RR_ENSURES(count > 0);
  return Bandwidth::bytes_per_sec(sum / count);
}

}  // namespace rr::comm
