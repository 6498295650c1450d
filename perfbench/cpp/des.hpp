// The Sweep3D-over-CML workloads (des-deep, des-wide) and the arithmetic
// the self-tests check: closed-form CML message counts, the transport legs
// implied by the rank -> node -> Cell map, and the benchmark's own copy of
// model::simulate_iteration's rank program.
#pragma once

#include <cstdint>
#include <string>

#include "model/sweep_model.hpp"
#include "topo/topology.hpp"

namespace rr::perfbench {

/// One Sweep3D iteration: px x py SPE ranks sweeping `w`, mapped 8 per
/// Cell and 32 per triblade in rank order (simulate_iteration's layout).
struct DesShape {
  int px = 1;
  int py = 1;
  model::SweepWorkload w{};

  int ranks() const { return px * py; }
  int blocks() const { return w.kt / w.mk; }
};

/// The shape a DES workload runs ("des-deep" or "des-wide").
DesShape des_shape(const std::string& workload);

/// CML messages of one iteration: 8 octants x k-blocks x internal faces,
/// 8 * B * ((px - 1) * py + px * (py - 1)).
std::uint64_t closed_form_msgs(const DesShape& s);

/// Transport legs those messages cross: 1 EIB leg within a Cell, 2 DaCS
/// legs between Cells of one node, plus 1 InfiniBand leg between nodes.
struct LegCounts {
  std::uint64_t eib = 0;
  std::uint64_t dacs = 0;
  std::uint64_t ib = 0;
  std::uint64_t total() const { return eib + dacs + ib; }
};
LegCounts count_legs(const DesShape& s);

/// One run of the replica, on both clocks.  Simulated-time splits are
/// per-rank means, measured around the rank program's own awaits.
struct ReplicaStats {
  std::int64_t total_ps = 0;       ///< simulated iteration time
  std::size_t done = 0;            ///< rank programs that finished
  std::size_t world_size = 0;
  std::uint64_t sends = 0;         ///< CML messages sent
  std::uint64_t legs = 0;          ///< SimNetwork transfers
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t max_pending = 0;
  double world_s = 0.0;            ///< host: CmlWorld construction
  double launch_s = 0.0;           ///< host: run() until the last rank starts
  double loop_s = 0.0;             ///< host: the rest of run()
  double compute_sim_s = 0.0;      ///< around sim::Delay
  double recv_wait_sim_s = 0.0;    ///< around ctx.recv
  double send_sim_s = 0.0;         ///< around ctx.send
  double pcie_busy_sim_s = 0.0;    ///< link service time, summed over links
  double ib_busy_sim_s = 0.0;
  double eib_busy_sim_s = 0.0;
  double pcie_util_max = 0.0;      ///< busiest link's busy time / iteration
  double ib_util_max = 0.0;
};

/// The benchmark's copy of simulate_iteration's rank program, written
/// against the public CmlWorld/CmlContext API and instrumented.  It is the
/// only way to separate launch from the event loop, and to split simulated
/// time, from outside the library; the replica guard requires its
/// simulated time, sends and legs to equal the library's exactly.
ReplicaStats run_replica(const DesShape& s, const model::SweepCompute& compute,
                         const topo::Topology& topo);

}  // namespace rr::perfbench
