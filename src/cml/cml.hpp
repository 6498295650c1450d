// Reproduction of the Cell Messaging Layer (CML, Section V.C): the cluster
// appears as "a sea of interconnected SPEs".  Every SPE in the machine has
// a unique MPI-style rank; any SPE can message any other regardless of
// socket, blade, or node.  Messages between SPEs in the same socket travel
// the EIB; between sockets/blades they are relayed by the PPE over DaCS to
// the Opteron, which performs MPI over InfiniBand on the SPE's behalf.
//
// This implementation is *functional*: payloads really move, matching and
// collectives really synchronize -- on simulated time supplied by the
// calibrated channel models, with per-link contention from the DES
// resources in comm::SimNetwork.  The size-only Sweep3D run
// (sweep::sweep_once_cml_sized, behind model::simulate_iteration) is the
// exception: it never reads what it receives, so it sends sizes only
// (send_sized), timed exactly like a payload of that many doubles.
//
// Supported surface (what Sweep3D needs, Section V.C): point-to-point
// send/recv with tag matching, barrier, broadcast, sum-reductions, and the
// RPC mechanism for invoking PPE/Opteron services (e.g. malloc, file I/O).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "comm/network.hpp"
#include "sim/mailbox.hpp"
#include "sim/task.hpp"

namespace rr::cml {

using Rank = int;
inline constexpr Rank kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Message {
  Rank src = -1;
  int tag = 0;
  std::vector<double> payload;
};

struct CmlConfig {
  int nodes = 1;
  int cells_per_node = 4;  ///< two QS22 blades x two PowerXCell 8i
  int spes_per_cell = 8;
  bool best_case_pcie = false;  ///< mature-software PCIe parameters
};

class CmlWorld;

/// Per-rank communication handle passed to rank programs.
class CmlContext {
 public:
  CmlContext(CmlWorld& world, Rank rank) : world_(&world), rank_(rank) {}

  Rank rank() const { return rank_; }
  int size() const;
  int node() const;
  int cell() const;  ///< global cell index: node * cells_per_node + local

  /// Blocking (simulated-time) tagged send: the message is delivered into
  /// the destination's queue when the last leg completes.
  sim::Task<void> send(Rank dst, int tag, std::vector<double> payload);

  /// send() of a message `doubles` doubles long whose contents nobody
  /// reads: the transport is charged message_bytes of that size, and the
  /// receiver gets the envelope with an empty payload.
  sim::Task<void> send_sized(Rank dst, int tag, std::size_t doubles);

  /// Blocking receive with (src, tag) matching; kAnySource/kAnyTag wildcard.
  sim::Task<Message> recv(Rank src = kAnySource, int tag = kAnyTag);

  /// Dissemination barrier over point-to-point messages.
  sim::Task<void> barrier();

  /// Binomial-tree broadcast from `root`; on non-roots, returns the data.
  sim::Task<std::vector<double>> broadcast(Rank root, std::vector<double> data = {});

  /// Binomial-tree sum-reduction to `root` followed by a broadcast
  /// (allreduce); every rank receives the elementwise sum.
  sim::Task<std::vector<double>> allreduce_sum(std::vector<double> contribution);

  /// RPC onto the PPE that hosts this SPE (e.g. malloc of main-memory
  /// buffers): two EIB mailbox crossings plus the host execution time.
  sim::Task<std::vector<double>> rpc_ppe(std::function<std::vector<double>()> fn,
                                         Duration host_time = Duration::microseconds(1));

  /// RPC onto the node's Opteron (e.g. reading the input file, since the
  /// parallel filesystem is not exposed to the PPEs): EIB + DaCS each way.
  sim::Task<std::vector<double>> rpc_opteron(std::function<std::vector<double>()> fn,
                                             Duration host_time = Duration::microseconds(5));

 private:
  CmlWorld* world_;
  Rank rank_;
};

/// The world: rank/topology mapping, endpoints, and the program runner.
class CmlWorld {
 public:
  CmlWorld(sim::Simulator& sim, const topo::Topology& topo, CmlConfig config);

  int size() const { return size_; }
  const CmlConfig& config() const { return config_; }
  comm::SimNetwork& network() { return net_; }
  sim::Simulator& simulator() { return *sim_; }

  int node_of(Rank r) const;
  int cell_of(Rank r) const;   ///< global cell index
  int spe_of(Rank r) const;    ///< SPE slot within its cell

  /// Launch `program(ctx)` for every rank and run the simulation to
  /// completion.  Returns the number of rank programs that finished;
  /// a value below size() means deadlock (some rank is still blocked).
  std::size_t run(const std::function<sim::Task<void>(CmlContext)>& program);

  // -- used by CmlContext ----------------------------------------------------
  /// The network's one route coroutine for a message from `src` to `dst`
  /// (two different ranks).
  sim::Task<void> transport(Rank src, Rank dst, DataSize bytes);
  void deliver(Rank dst, Message msg);
  sim::Task<Message> match(Rank dst, Rank src, int tag);

 private:
  struct Endpoint {
    explicit Endpoint(sim::Simulator& sim) : box(sim) {}
    sim::Mailbox<Message> box;
    std::vector<Message> stash;  ///< arrived but not yet matched
  };

  sim::Simulator* sim_;
  CmlConfig config_;
  int size_;
  comm::SimNetwork net_;
  std::deque<Endpoint> endpoints_;  ///< one per rank, never moved
};

/// Payload size in bytes for timing purposes (comm::message_bytes).
DataSize message_bytes(const std::vector<double>& payload);

}  // namespace rr::cml
