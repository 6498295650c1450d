// Discrete-event transport for functional message-passing: the Cell
// Messaging Layer (src/cml) and DaCS (src/dacs) both cross its links.
//
// Timing comes from the calibrated channel models; contention comes from
// per-link serialization.  SimNetwork owns every contended link of the
// DES: one InfiniBand send engine (HCA) per node and one PCIe link per
// Cell, each a one-holder FIFO token plus its busy time.  One coroutine
// (`route`) walks a transfer's whole route, leg by leg, and is the only
// code that takes a token or adds busy time: an SPE-to-SPE message
// (spe_transfer) is one frame however many legs it crosses, and a DaCS
// crossing (dacs_transfer) is a one-leg route.  The EIB within a Cell
// socket and the SPE<->PPE local legs are modeled as uncontended and have
// no token.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>

#include "arch/mapping.hpp"
#include "comm/channel.hpp"
#include "sim/resource.hpp"
#include "sim/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "topo/fat_tree.hpp"

namespace rr::obs {
class MetricsRegistry;
}

namespace rr::comm {

struct NetworkConfig {
  int cells_per_node = arch::kSpeCentric.sockets_per_node;
  /// Use the mature-software parameters (raw PCIe instead of early DaCS).
  bool best_case_pcie = false;
};

class SimNetwork {
 public:
  SimNetwork(sim::Simulator& sim, const topo::FatTree& topo,
             NetworkConfig config = {});

  sim::Simulator& simulator() { return *sim_; }
  const topo::FatTree& topology() const { return *topo_; }
  const NetworkConfig& config() const { return config_; }

  // -- analytic timing ------------------------------------------------------
  Duration local_time(DataSize n) const;                  ///< SPE<->PPE, one Cell
  Duration eib_time(DataSize n) const;                    ///< SPE<->SPE, same Cell
  Duration dacs_time(DataSize n) const;                   ///< Cell<->Opteron
  Duration ib_time(int src_node, int dst_node, DataSize n) const;

  // -- contended transfers (awaitable) --------------------------------------
  /// SPE to SPE, from Cell `src_cell` of node `src_node` to Cell
  /// `dst_cell` of node `dst_node` (cells numbered within their node).
  /// Within one Cell the message crosses the EIB.  Otherwise the PPE
  /// relays it (Section V.C): SPE->PPE local leg, the source Cell's PCIe
  /// link, the source node's HCA (between nodes only), the destination
  /// Cell's PCIe link, PPE->SPE local leg.
  sim::Task<void> spe_transfer(int src_node, int src_cell, int dst_node,
                               int dst_cell, DataSize n);
  /// Cell <-> Opteron over the Cell's dedicated PCIe link (DaCS transfers
  /// and CML's Opteron RPCs).
  sim::Task<void> dacs_transfer(int node, int cell, DataSize n);

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
  /// One leg of a route: an SPE<->PPE local leg, the EIB, the PCIe link
  /// of Cell `other` on node `node`, or node `node`'s HCA sending to node
  /// `other`.
  struct Leg {
    enum class Kind : std::uint8_t { kLocal, kEib, kPcie, kIb };
    Kind kind = Kind::kLocal;
    int node = 0;
    int other = 0;
  };
  /// The legs a transfer crosses, in order (at most the five of a relay).
  struct Route {
    std::array<Leg, 5> legs;
    std::uint8_t size = 0;
    void add(Leg leg) { legs[size++] = leg; }
  };

  /// One-way times of one message size: the SPE<->PPE local leg, the
  /// EIB, DaCS over PCIe, and MPI over InfiniBand before its hop term.
  struct Prices {
    DataSize n = DataSize::bytes(-1);  ///< no message has this size
    Duration local;
    Duration eib;
    Duration dacs;
    Duration mpi;
  };

  /// Cross every leg of `r` with `n` bytes.  A link leg queues for the
  /// link's token, holds it for its service time and releases it.
  sim::Task<void> route(Route r, DataSize n);
  /// The one-way times of size `n`, from a two-entry memo: a Sweep3D run
  /// sends at most two message sizes (its x and y faces), so each is
  /// priced once.  Read the entry before the next co_await; another
  /// route may replace it.
  const Prices& prices(DataSize n);
  /// The switch-hop term of an IB leg.
  Duration hop_time(int src_node, int dst_node) const;
  /// The contended link a PCIe or IB leg crosses.
  Link& link_of(Leg leg);
  /// Open the leg's trace span (formatted here, outside the coroutine).
  sim::TraceRecorder::SpanId open_span(Leg leg, DataSize n) const;

  sim::Simulator* sim_;
  const topo::FatTree* topo_;
  NetworkConfig config_;
  ChannelModel eib_;
  ChannelModel dacs_;
  ChannelModel mpi_;
  std::deque<Link> hca_;    // one per node
  std::deque<Link> pcie_;   // one per (node, cell)
  std::array<Prices, 2> prices_;
  std::uint8_t next_price_ = 0;  ///< the memo entry the next new size replaces
  Duration eib_busy_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  sim::TraceRecorder* trace_ = nullptr;
};

}  // namespace rr::comm
