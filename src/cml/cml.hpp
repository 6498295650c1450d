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

#include <coroutine>
#include <functional>
#include <vector>

#include "arch/mapping.hpp"
#include "comm/network.hpp"
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
  int cells_per_node = arch::kSpeCentric.sockets_per_node;
  int spes_per_cell = arch::kSpeCentric.ranks_per_socket;
  bool best_case_pcie = false;  ///< mature-software PCIe parameters
};

class CmlWorld;
class CmlContext;

/// `co_await ctx.send(...)` / `send_sized(...)`: the awaiter holds the
/// envelope and the route task, so a send costs no coroutine frame beyond
/// SimNetwork::route's.  Awaiting it transfers straight into the route;
/// when the last leg completes, await_resume rethrows any route failure
/// and delivers the message.  A message to oneself crosses nothing.
class [[nodiscard]] SendAwaiter {
 public:
  SendAwaiter(const SendAwaiter&) = delete;
  SendAwaiter& operator=(const SendAwaiter&) = delete;

  bool await_ready() const noexcept { return !route_.valid(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
    return std::move(route_).operator co_await().await_suspend(h);
  }
  void await_resume();

 private:
  friend class CmlContext;
  /// A message of `bytes` on the wire from `src` to `dst`.
  SendAwaiter(CmlWorld& world, Rank src, Rank dst, int tag,
              std::vector<double> payload, DataSize bytes);

  CmlWorld* world_;
  sim::Task<void> route_;  ///< empty for a message to oneself
  Message msg_;
  Rank dst_;
};

/// `co_await ctx.recv(src, tag)`: the awaiter lives in the receiving
/// rank's frame.  It takes the oldest message that has arrived and
/// matches; otherwise it becomes its endpoint's one waiter until
/// CmlWorld::deliver hands it one.
class [[nodiscard]] RecvAwaiter {
 public:
  RecvAwaiter(const RecvAwaiter&) = delete;
  RecvAwaiter& operator=(const RecvAwaiter&) = delete;
  /// A receive torn down while it waits (a deadlocked program) stops
  /// waiting, so its endpoint never resumes a dead frame.
  ~RecvAwaiter() {
    if (waiting_) stop_waiting();
  }

  bool await_ready();
  void await_suspend(std::coroutine_handle<> h);
  Message await_resume() { return std::move(slot_); }

 private:
  friend class CmlContext;
  friend class CmlWorld;
  RecvAwaiter(CmlWorld& world, Rank dst, Rank src, int tag)
      : world_(&world), dst_(dst), src_(src), tag_(tag) {}

  bool matches(const Message& m) const {
    return (src_ == kAnySource || m.src == src_) && (tag_ == kAnyTag || m.tag == tag_);
  }
  void stop_waiting();

  CmlWorld* world_;
  Rank dst_;  ///< the receiving rank
  Rank src_;
  int tag_;
  bool waiting_ = false;  ///< registered as its endpoint's waiter
  std::coroutine_handle<> handle_;
  Message slot_;
};

/// Per-rank communication handle passed to rank programs.
class CmlContext {
 public:
  CmlContext(CmlWorld& world, Rank rank) : world_(&world), rank_(rank) {}

  Rank rank() const { return rank_; }
  int size() const;

  /// Blocking (simulated-time) tagged send: the message is delivered into
  /// the destination's queue when the last leg completes.  User tags are
  /// >= 0; negative tags belong to the collectives.
  SendAwaiter send(Rank dst, int tag, std::vector<double> payload);

  /// send() of a message `doubles` doubles long whose contents nobody
  /// reads: the transport is charged message_bytes of that size, and the
  /// receiver gets the envelope with an empty payload.
  SendAwaiter send_sized(Rank dst, int tag, std::size_t doubles);

  /// Blocking receive with (src, tag) matching; kAnySource/kAnyTag
  /// wildcard.  `src` is a rank of this world or kAnySource, and `tag` is
  /// >= kAnyTag.  One receive at a time may wait on a rank.
  RecvAwaiter recv(Rank src = kAnySource, int tag = kAnyTag);

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
  /// send() and recv() without the tag checks: the collectives' path,
  /// whose tags are negative.
  SendAwaiter send_any_tag(Rank dst, int tag, std::vector<double> payload);
  RecvAwaiter recv_any_tag(Rank src, int tag);

  CmlWorld* world_;
  Rank rank_;
};

/// The world: rank/topology mapping, endpoints, and the program runner.
class CmlWorld {
 public:
  CmlWorld(sim::Simulator& sim, const topo::FatTree& topo, CmlConfig config);

  int size() const { return size_; }
  const CmlConfig& config() const { return config_; }
  comm::SimNetwork& network() { return net_; }
  sim::Simulator& simulator() { return *sim_; }
  /// Where each rank runs: spes_per_cell ranks per Cell socket and
  /// cells_per_node sockets per node, row-major.
  arch::Mapping mapping() const { return {config_.cells_per_node, config_.spes_per_cell}; }

  /// Launch `program(ctx)` for every rank and run the simulation to
  /// completion.  Returns the number of rank programs that finished;
  /// a value below size() means deadlock (some rank is still blocked).
  std::size_t run(const std::function<sim::Task<void>(CmlContext)>& program);

  // -- used by CmlContext and its awaiters -----------------------------------
  /// The network's one route coroutine for a message from `src` to `dst`
  /// (two different ranks).
  sim::Task<void> transport(Rank src, Rank dst, DataSize bytes);
  /// Hand `msg` to rank `dst`.  A waiting receive that matches it resumes
  /// in a zero-delay event.  A waiting receive that does not still costs
  /// that one event, in which it looks again (a message it matches may
  /// have arrived meanwhile) or waits on; matching at delivery instead
  /// would drop the event and reorder same-time wake-ups.
  void deliver(Rank dst, Message msg);

 private:
  friend class RecvAwaiter;

  struct Endpoint {
    RecvAwaiter* waiter = nullptr;  ///< the rank's one waiting receive
    std::vector<Message> arrived;   ///< not yet received, oldest first
  };

  /// Move the oldest arrived message `w` matches into its slot.
  bool take(RecvAwaiter& w);
  /// Make `w` (suspended) its endpoint's waiter.
  void wait(RecvAwaiter& w);
  /// The zero-delay event after a non-matching delivery to `w`.
  void retry(RecvAwaiter& w);

  sim::Simulator* sim_;
  CmlConfig config_;
  int size_;
  comm::SimNetwork net_;
  std::vector<Endpoint> endpoints_;  ///< one per rank
};

/// Payload size in bytes for timing purposes (comm::message_bytes).
DataSize message_bytes(const std::vector<double>& payload);

}  // namespace rr::cml
