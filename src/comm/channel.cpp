#include "comm/channel.hpp"

#include "arch/calibration.hpp"
#include "util/expect.hpp"

namespace rr::comm {

namespace cal = rr::arch::cal;

ChannelModel::ChannelModel(ChannelParams p) : p_(std::move(p)) {
  RR_EXPECTS(p_.eager_bandwidth.bps() > 0);
  RR_EXPECTS(p_.rendezvous_bandwidth.bps() > 0);
  RR_EXPECTS(p_.duplex_efficiency > 0 && p_.duplex_efficiency <= 1.0);
}

Duration ChannelModel::serialization(DataSize n, double bw_scale) const {
  if (n.b() == 0) return Duration::zero();
  Duration t = Duration::zero();
  if (n <= p_.eager_threshold) {
    t += transfer_time(n, p_.eager_bandwidth * bw_scale);
  } else {
    t += p_.rendezvous_overhead;
    t += transfer_time(n, p_.rendezvous_bandwidth * bw_scale);
  }
  if (p_.fragment.b() > 0 && p_.per_fragment_overhead > Duration::zero()) {
    const std::int64_t frags = (n.b() + p_.fragment.b() - 1) / p_.fragment.b();
    // Fragment processing pipelines with the wire for all but the first.
    t += p_.per_fragment_overhead;
    if (frags > 1) {
      const Duration wire_per_frag =
          transfer_time(p_.fragment, p_.rendezvous_bandwidth * bw_scale);
      if (p_.per_fragment_overhead > wire_per_frag)
        t += (p_.per_fragment_overhead - wire_per_frag) * (frags - 1);
    }
  }
  return t;
}

Duration ChannelModel::one_way(DataSize n) const {
  return p_.latency + serialization(n, 1.0);
}

Duration ChannelModel::one_way_bidirectional(DataSize n) const {
  return p_.latency + serialization(n, p_.duplex_efficiency);
}

Bandwidth ChannelModel::uni_bandwidth(DataSize n) const {
  RR_EXPECTS(n.b() > 0);
  return achieved_bandwidth(n, one_way(n));
}

Bandwidth ChannelModel::bidir_bandwidth_sum(DataSize n) const {
  RR_EXPECTS(n.b() > 0);
  return achieved_bandwidth(n, one_way_bidirectional(n)) * 2.0;
}

ChannelParams with_hops(ChannelParams p, int hops) {
  RR_EXPECTS(hops >= 0);
  p.latency += cal::kSwitchHopLatency * hops;
  return p;
}

ChannelParams dacs_pcie() {
  ChannelParams p;
  p.name = "DaCS / PCIe x8 (early software)";
  p.latency = cal::kAnchorDacsLatency;  // 3.19 us (Fig. 6)
  // Eager regime copies through unpinned bounce buffers: well under half
  // of InfiniBand's small-message bandwidth (Fig. 9).
  p.eager_bandwidth = Bandwidth::mb_per_sec(260);
  p.eager_threshold = DataSize::kib(16);
  p.rendezvous_overhead = Duration::microseconds(1.5);
  // Large messages: 1008 MB/s unidirectional (Fig. 7, 2017/2).
  p.rendezvous_bandwidth = Bandwidth::mb_per_sec(1010);
  p.duplex_efficiency = 0.64;  // Fig. 7: 1295 vs 2017 MB/s
  return p;
}

ChannelParams mpi_infiniband(bool near_hca) {
  ChannelParams p;
  p.name = near_hca ? "Open MPI / IB 4x DDR (cores 1,3)"
                    : "Open MPI / IB 4x DDR (cores 0,2)";
  p.latency = kMpiBaseLatency;
  p.eager_bandwidth = Bandwidth::mb_per_sec(near_hca ? 900 : 800);
  p.eager_threshold = DataSize::kib(12);
  p.rendezvous_overhead = Duration::microseconds(1.0);
  // Fig. 8 plateaus: 1478 MB/s near the HCA, 1087 MB/s across the extra
  // HyperTransport hop.
  p.rendezvous_bandwidth =
      near_hca ? cal::kAnchorIbCores13 : cal::kAnchorIbCores02;
  p.duplex_efficiency = 0.70;  // Fig. 7 internode: 375 vs 536 MB/s
  return p;
}

ChannelParams mpi_infiniband_pinned() {
  ChannelParams p = mpi_infiniband(true);
  p.name = "Open MPI / IB 4x DDR (pinned buffers)";
  p.rendezvous_bandwidth = cal::kAnchorMpi1MbPinned;  // 1.6 GB/s (Fig. 10)
  p.rendezvous_overhead = Duration::microseconds(0.6);
  return p;
}

ChannelParams cml_eib() {
  ChannelParams p;
  p.name = "CML / EIB (intra-socket SPE to SPE)";
  p.latency = cal::kAnchorCmlIntraSocketLatency;  // 0.272 us
  p.eager_bandwidth = Bandwidth::gb_per_sec(20.0);
  p.eager_threshold = DataSize::kib(16);
  p.rendezvous_overhead = Duration::microseconds(0.1);
  // 22.4 GB/s achieved at 128 KB implies ~23.5 GB/s asymptotic.
  p.rendezvous_bandwidth = Bandwidth::gb_per_sec(23.5);
  p.duplex_efficiency = 0.9;
  return p;
}

ChannelParams pcie_raw() {
  ChannelParams p;
  p.name = "raw PCIe x8 (microbenchmark)";
  p.latency = cal::kPcieAchievableLatency;           // 2 us
  p.eager_bandwidth = Bandwidth::mb_per_sec(1200);
  p.eager_threshold = DataSize::kib(16);
  p.rendezvous_overhead = Duration::microseconds(0.5);
  p.rendezvous_bandwidth = cal::kPcieAchievableBw;   // 1.6 GB/s
  p.duplex_efficiency = 0.75;
  return p;
}

ChannelParams cell_pcie(bool best_case) {
  return best_case ? pcie_raw() : dacs_pcie();
}

ChannelParams hypertransport() {
  ChannelParams p;
  p.name = "HyperTransport x16";
  p.latency = Duration::nanoseconds(400);
  p.eager_bandwidth = Bandwidth::gb_per_sec(4.0);
  p.eager_threshold = DataSize::kib(32);
  p.rendezvous_overhead = Duration::nanoseconds(200);
  p.rendezvous_bandwidth = cal::kHtPeak * 0.85;
  p.duplex_efficiency = 0.85;
  return p;
}

DataSize message_bytes(std::size_t doubles) {
  return DataSize::bytes(static_cast<std::int64_t>(doubles) * 8 + 32);
}

}  // namespace rr::comm
