// Discrete-event transport for functional message-passing: the Cell
// Messaging Layer (src/cml) and DaCS (src/dacs) both cross its links.
//
// Timing comes from the calibrated channel models; contention comes from
// per-link serialization.  SimNetwork owns every contended link of the
// DES: one InfiniBand send engine (HCA) per node and one PCIe link per
// Cell, each a one-holder FIFO token plus its busy time, and every leg
// over either crosses it in one place (`cross`).  The EIB within a Cell
// socket is modeled as uncontended and has no token.
#pragma once

#include <deque>
#include <string>

#include "comm/channel.hpp"
#include "sim/resource.hpp"
#include "sim/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "topo/topology.hpp"

namespace rr::obs {
class MetricsRegistry;
}

namespace rr::comm {

struct NetworkConfig {
  int cells_per_node = 4;
  /// Use the mature-software parameters (raw PCIe instead of early DaCS).
  bool best_case_pcie = false;
};

class SimNetwork {
 public:
  SimNetwork(sim::Simulator& sim, const topo::Topology& topo,
             NetworkConfig config = {});

  sim::Simulator& simulator() { return *sim_; }
  const topo::Topology& topology() const { return *topo_; }
  const NetworkConfig& config() const { return config_; }

  // -- analytic timing ------------------------------------------------------
  Duration eib_time(DataSize n) const;                    ///< SPE<->SPE, same Cell
  Duration dacs_time(DataSize n) const;                   ///< Cell<->Opteron
  Duration ib_time(int src_node, int dst_node, DataSize n) const;

  // -- contended transfers (awaitable) --------------------------------------
  /// SPE-to-SPE within one Cell socket: EIB, effectively uncontended.
  sim::Task<void> eib_transfer(DataSize n);
  /// Cell <-> Opteron over the Cell's dedicated PCIe link (CML relays and
  /// DaCS transfers alike).
  sim::Task<void> dacs_transfer(int node, int cell, DataSize n);
  /// Opteron <-> Opteron over InfiniBand; serializes on the sender's HCA.
  sim::Task<void> ib_transfer(int src_node, int dst_node, DataSize n);

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// Attach a span recorder; every transfer then emits a span on a track
  /// named after the link it used ("ib/node3", "pcie/node0.cell2", "eib").
  /// Pass nullptr to detach.  The recorder must outlive the network.
  void attach_trace(sim::TraceRecorder* trace) { trace_ = trace; }

  /// Simulated time each link spent serializing data so far.
  Duration ib_busy(int node) const;
  Duration pcie_busy(int node, int cell) const;
  Duration eib_busy() const { return eib_busy_; }

  /// Publish per-link utilization gauges for the HCAs and PCIe links
  /// (busy time / sim.now(), so 1.0 = saturated since t=0) under
  /// `<prefix>.link.*`, the machine-wide EIB service time in seconds
  /// (`<prefix>.link.eib.busy_s`: every Cell's EIB summed, so no
  /// utilization), plus message/byte totals.  Only links that carried
  /// traffic get a gauge, keeping the family bounded on big topologies.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix = "net") const;

 private:
  /// One contended link: a one-holder FIFO token plus the simulated time
  /// it spent serializing data.
  struct Link {
    explicit Link(sim::Simulator& sim) : token(sim, 1) {}
    sim::Resource token;
    Duration busy;
  };
  /// Which link a leg crosses, for its trace span: node `node`'s HCA
  /// sending to node `other`, or the PCIe link of cell `other` on `node`.
  struct Leg {
    bool ib;
    int node;
    int other;
  };

  /// The one crossing of a contended link: queue for its token, hold it
  /// for `service`, release.
  sim::Task<void> cross(Link& link, Duration service, DataSize n, Leg leg);
  /// Open the leg's trace span (formatted here, outside the coroutine).
  sim::TraceRecorder::SpanId open_span(Leg leg, DataSize n) const;

  sim::Simulator* sim_;
  const topo::Topology* topo_;
  NetworkConfig config_;
  ChannelModel eib_;
  ChannelModel dacs_;
  ChannelModel mpi_;
  std::deque<Link> hca_;    // one per node
  std::deque<Link> pcie_;   // one per (node, cell)
  Duration eib_busy_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  sim::TraceRecorder* trace_ = nullptr;
};

}  // namespace rr::comm
