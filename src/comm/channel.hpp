// Point-to-point channel timing models (Section IV.C).
//
// Each channel (DaCS over PCIe, MPI over InfiniBand, CML over the EIB,
// HyperTransport, raw PCIe) is modeled with a two-regime LogGP-style
// formula:
//
//   eager      (n <= eager_threshold):  T = L + n / B_eager
//   rendezvous (n >  eager_threshold):  T = L + L_rndv + n / B_rndv
//
// plus an optional per-fragment processing cost for stacks that chop
// messages into bounce-buffer fragments (early DaCS).  Bidirectional
// traffic achieves only `duplex_efficiency` of twice the unidirectional
// bandwidth (Fig. 7: 64% on PCIe/DaCS, 70% across nodes).
#pragma once

#include <cstddef>
#include <string>

#include "util/units.hpp"

namespace rr::comm {

struct ChannelParams {
  std::string name;
  Duration latency;                       ///< zero-byte one-way software latency
  Bandwidth eager_bandwidth;              ///< small-message regime
  Bandwidth rendezvous_bandwidth;         ///< large-message regime
  DataSize eager_threshold = DataSize::kib(16);
  Duration rendezvous_overhead = Duration::microseconds(1.5);
  DataSize fragment = DataSize::zero();   ///< 0 = no fragmentation cost
  Duration per_fragment_overhead = Duration::zero();
  double duplex_efficiency = 1.0;         ///< of 2x unidirectional
};

class ChannelModel {
 public:
  explicit ChannelModel(ChannelParams p);

  const ChannelParams& params() const { return p_; }

  /// One-way time for an n-byte message with the channel otherwise idle.
  Duration one_way(DataSize n) const;

  /// One-way time while an equal-rate reverse stream is active.
  Duration one_way_bidirectional(DataSize n) const;

  /// Achieved unidirectional bandwidth n / one_way(n).
  Bandwidth uni_bandwidth(DataSize n) const;

  /// Sum of both directions' achieved bandwidth under full-duplex load
  /// (the paper's "bidirectional bandwidth" metric).
  Bandwidth bidir_bandwidth_sum(DataSize n) const;

 private:
  Duration serialization(DataSize n, double bw_scale) const;
  ChannelParams p_;
};

// ---------------------------------------------------------------------------
// Calibrated presets (see arch/calibration.hpp for the measured anchors)
// ---------------------------------------------------------------------------

/// DaCS over PCIe between a PowerXCell 8i and its Opteron, early software
/// stack: 3.19 us latency, bounce-buffer copies in the eager regime.
ChannelParams dacs_pcie();

/// Open MPI over 4x DDR InfiniBand between Opterons in different nodes.
/// `near_hca`: cores 1/3 sit next to the HCA (1478 MB/s); cores 0/2 pay an
/// extra HyperTransport crossing (1087 MB/s) -- Fig. 8.
ChannelParams mpi_infiniband(bool near_hca = true);

/// MPI over IB with registered (pinned) buffers: 1.6 GB/s at 1 MB (Fig. 10).
ChannelParams mpi_infiniband_pinned();

/// CML SPE-to-SPE within one Cell socket over the EIB (Section V.C):
/// 0.272 us, 22.4 GB/s at 128 KB.
ChannelParams cml_eib();

/// Raw PCIe x8 as microbenchmarked (Section VI.A): 2 us, 1.6 GB/s.  These
/// are the "best achievable" parameters used for the Fig. 13/14 model.
ChannelParams pcie_raw();

/// A Cell's PCIe link to its Opteron as the models price it: early DaCS,
/// or raw PCIe when `best_case` (the mature software stack).
ChannelParams cell_pcie(bool best_case);

/// HyperTransport x16 between the two Opteron sockets of the LS21.
ChannelParams hypertransport();

/// MPI software overhead excluding switch hops; one crossbar hop adds
/// arch::cal::kSwitchHopLatency (220 ns, Section II.B).  kMpiBaseLatency +
/// 1 hop = the 2.5 us floor of Fig. 10.
inline constexpr Duration kMpiBaseLatency = Duration::microseconds(2.28);

/// Add `hops` crossbar traversals to a channel's zero-byte latency.
ChannelParams with_hops(ChannelParams p, int hops);

/// Wire size of a CML or DaCS message carrying `doubles` doubles, for
/// timing: 8 bytes per double plus a 32-byte envelope (rank, tag, length,
/// flags).
DataSize message_bytes(std::size_t doubles);

}  // namespace rr::comm
