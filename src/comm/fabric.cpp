#include "comm/fabric.hpp"

#include "arch/calibration.hpp"
#include "obs/metrics.hpp"
#include "util/expect.hpp"

namespace rr::comm {

namespace cal = rr::arch::cal;

namespace {

// Fabric instrumentation (DESIGN.md §10): the Fig. 10 sweep counts its
// pings and the hop-distance distribution they saw.  The tree is three
// crossbar levels deep, so hop counts are tiny integers; exact buckets.
struct FabricMetrics {
  obs::Counter& pings;
  obs::Histogram& hops;

  static FabricMetrics& instance() {
    auto& reg = obs::MetricsRegistry::global();
    static FabricMetrics m{
        reg.counter("fabric.pings"),
        reg.histogram("fabric.hops", {0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0})};
    return m;
  }
};

}  // namespace

ChannelParams mpi_infiniband_default_params() {
  ChannelParams p = mpi_infiniband(true);
  p.name = "Open MPI / IB 4x DDR (default parameters)";
  // Without registered buffers OpenMPI stages data through bounce buffers:
  // 1 MB messages average 980 MB/s across the machine (Section IV.C).
  p.rendezvous_bandwidth = Bandwidth::mb_per_sec(1000);
  p.rendezvous_overhead = Duration::microseconds(2.0);
  return p;
}

FabricModel::FabricModel(const topo::Topology& topo)
    : topo_(&topo),
      default_mpi_(mpi_infiniband_default_params()),
      pinned_mpi_(mpi_infiniband_pinned()) {}

Duration FabricModel::zero_byte_latency(topo::NodeId src, topo::NodeId dst) const {
  if (src == dst) return Duration::zero();
  return kMpiBaseLatency + cal::kSwitchHopLatency * topo_->hop_count(src, dst);
}

std::vector<LatencySweepPoint> FabricModel::latency_sweep(topo::NodeId src) const {
  std::vector<LatencySweepPoint> out;
  out.reserve(topo_->node_count());
  for (int d = 0; d < topo_->node_count(); ++d) {
    if (d == src.v) continue;
    LatencySweepPoint pt;
    pt.node = d;
    pt.hops = topo_->hop_count(src, topo::NodeId{d});
    pt.latency = kMpiBaseLatency + cal::kSwitchHopLatency * pt.hops;
    FabricMetrics& fm = FabricMetrics::instance();
    fm.pings.inc();
    fm.hops.observe(pt.hops);
    out.push_back(pt);
  }
  return out;
}

Bandwidth FabricModel::large_message_bandwidth(topo::NodeId src, topo::NodeId dst,
                                               DataSize n, bool pinned) const {
  RR_EXPECTS(n.b() > 0);
  RR_EXPECTS(!(src == dst));
  const ChannelModel& ch = pinned ? pinned_mpi_ : default_mpi_;
  const Duration t =
      ch.one_way(n) + cal::kSwitchHopLatency * topo_->hop_count(src, dst);
  return achieved_bandwidth(n, t);
}

Bandwidth FabricModel::average_bandwidth(topo::NodeId src, DataSize n,
                                         bool pinned) const {
  double sum = 0.0;
  int count = 0;
  for (int d = 0; d < topo_->node_count(); ++d) {
    if (d == src.v) continue;
    sum += large_message_bandwidth(src, topo::NodeId{d}, n, pinned).bps();
    ++count;
  }
  RR_ENSURES(count > 0);
  return Bandwidth::bytes_per_sec(sum / count);
}

}  // namespace rr::comm
