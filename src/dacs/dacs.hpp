// Reproduction of IBM's DaCS (Data Communication and Synchronization
// Library for Hybrid-x86) -- the library the paper uses for every
// Cell <-> Opteron transfer (Sections III-IV; references [13], [17]).
//
// The modeled subset follows the real API's shape:
//   * a process topology of elements: one host element (HE, the Opteron
//     core) with reserved accelerator-element children (AEs, the
//     PowerXCell 8i PPEs);
//   * two-sided messaging: send / recv are ASYNCHRONOUS and complete
//     through *wait identifiers* (wid_reserve, test, wait) -- exactly the
//     dacs_send/dacs_recv/dacs_wait flow;
//   * one-sided remote memory: create/share a region, then put/get
//     against it, also completing through wids;
//   * group barrier across the HE and its AEs.
//
// Functionally real: payload bytes actually move between element-owned
// buffers.  Temporally modeled: the runtime is node 0 of a
// comm::SimNetwork, and every HE <-> AE crossing is that network's
// dacs_transfer over the AE's Cell PCIe link -- the same link, token and
// busy time a CML message leaving that Cell uses.  Its timing (early DaCS
// or raw PCIe) is the network's.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "comm/network.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"

namespace rr::dacs {

enum class ElementKind { kHostElement, kAcceleratorElement };

/// DaCS element id within one runtime (0 = HE, 1..n = AEs).
struct DeId {
  int v = -1;
  friend constexpr auto operator<=>(DeId, DeId) = default;
};

/// Wait identifier for an asynchronous operation.
struct Wid {
  std::uint64_t v = 0;
};

struct RemoteMem {
  DeId owner;
  std::uint64_t handle = 0;
  std::size_t size = 0;  ///< doubles
};

class DacsRuntime;

/// One element's endpoint handle (the per-process view of the API).
class Element {
 public:
  Element(DacsRuntime& rt, DeId id) : rt_(&rt), id_(id) {}

  DeId id() const { return id_; }
  ElementKind kind() const;

  // -- two-sided messaging --------------------------------------------------
  /// Start an asynchronous send of `data` to `dst` on `stream`.
  Wid send(DeId dst, int stream, std::vector<double> data);
  /// Start an asynchronous receive from `src` on `stream` into an
  /// internal buffer retrievable with take_received(wid).
  Wid recv(DeId src, int stream);

  // -- completion -----------------------------------------------------------
  bool test(Wid wid) const;                ///< dacs_test: non-blocking poll
  sim::Task<void> wait(Wid wid);           ///< dacs_wait: suspend until done
  std::vector<double> take_received(Wid wid);  ///< payload of a completed recv

  // -- one-sided remote memory ----------------------------------------------
  /// Create and implicitly share a region of `size` doubles owned by this
  /// element (dacs_remote_mem_create + share).
  RemoteMem create_remote_mem(std::size_t size);
  /// Asynchronous put of `data` into `mem` at `offset` (doubles).
  Wid put(const RemoteMem& mem, std::size_t offset, std::vector<double> data);
  /// Asynchronous get of `count` doubles from `mem` at `offset`.
  Wid get(const RemoteMem& mem, std::size_t offset, std::size_t count);

  /// Read this element's own region (test/verification accessor).
  double mem_at(const RemoteMem& mem, std::size_t offset) const;

  // -- group synchronization --------------------------------------------------
  /// Barrier across the HE and all AEs (dacs_barrier_wait).
  sim::Task<void> barrier();

 private:
  DacsRuntime* rt_;
  DeId id_;
};

/// Node 0's DaCS universe: the HE (node 0's Opteron) plus one AE per Cell
/// (`net.config().cells_per_node`).  The network must outlive the runtime.
class DacsRuntime {
 public:
  explicit DacsRuntime(comm::SimNetwork& net);

  sim::Simulator& simulator() { return net_->simulator(); }
  int num_elements() const { return net_->config().cells_per_node + 1; }
  Element element(DeId id);
  Element host_element() { return element(DeId{0}); }
  Element accelerator(int i);

  /// Run a set of element programs to completion; returns finished count.
  std::size_t run(std::vector<sim::Task<void>> programs);

  // -- internals used by Element ---------------------------------------------
  friend class Element;

 private:
  struct Pending {
    std::unique_ptr<sim::Event> done;
    std::vector<double> payload;  ///< filled for recv/get on completion
  };
  struct Region {
    std::vector<double> data;
  };
  struct MatchKey {
    int src, dst, stream;
    friend auto operator<=>(const MatchKey&, const MatchKey&) = default;
  };

  /// The network leg between the HE and an AE: its Cell's PCIe link.
  sim::Task<void> crossing(DeId a, DeId b, DataSize bytes);
  Wid new_wid();
  Pending& pending(Wid wid);
  const Pending& pending(Wid wid) const;
  void start_transfer(DeId src, DeId dst, std::vector<double> data, Wid send_wid,
                      Wid recv_wid);
  void start_put(DeId src, const RemoteMem& mem, std::size_t offset,
                 std::vector<double> data, Wid wid);
  void start_get(DeId dst, const RemoteMem& mem, std::size_t offset,
                 std::size_t count, Wid wid);

  comm::SimNetwork* net_;
  std::unique_ptr<sim::TaskRegistry> ops_;             // in-flight operations
  std::uint64_t next_wid_ = 1;
  std::map<std::uint64_t, Pending> pending_;
  std::map<std::uint64_t, Region> regions_;
  std::uint64_t next_region_ = 1;
  // Unmatched sends/recvs per (src, dst, stream).
  std::map<MatchKey, std::deque<std::uint64_t>> posted_sends_;
  std::map<MatchKey, std::deque<std::uint64_t>> posted_recvs_;
  std::map<std::uint64_t, std::vector<double>> send_payloads_;
  // Barrier state.
  int barrier_arrived_ = 0;
  int barrier_generation_ = 0;
  std::shared_ptr<sim::Event> barrier_event_;
};

}  // namespace rr::dacs
