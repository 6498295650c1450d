#include "cml/cml.hpp"

#include <cstdint>
#include <limits>

#include "util/expect.hpp"

namespace rr::cml {

namespace {
// Internal tag spaces (user tags are >= 0).
constexpr int kBarrierTagBase = -1000;  // minus the round number
constexpr int kBcastTag = -2000;
constexpr int kReduceTag = -3000;

/// The world's rank count, checked before any member is sized from it.
/// The product is bounded by INT_MAX in 64-bit arithmetic, so no config
/// wraps it.
int checked_size(const topo::FatTree& topo, const CmlConfig& config) {
  RR_EXPECTS(config.nodes >= 1 && config.nodes <= topo.node_count());
  RR_EXPECTS(config.cells_per_node >= 1 && config.spes_per_cell >= 1);
  const std::int64_t per_node =
      std::int64_t{config.cells_per_node} * config.spes_per_cell;
  RR_EXPECTS(per_node <= std::numeric_limits<int>::max() / config.nodes);
  return static_cast<int>(per_node * config.nodes);
}
}  // namespace

DataSize message_bytes(const std::vector<double>& payload) {
  return comm::message_bytes(payload.size());
}

CmlWorld::CmlWorld(sim::Simulator& sim, const topo::FatTree& topo, CmlConfig config)
    : sim_(&sim),
      config_(config),
      size_(checked_size(topo, config)),
      net_(sim, topo, comm::NetworkConfig{config.cells_per_node, config.best_case_pcie}),
      endpoints_(static_cast<std::size_t>(size_)) {}

sim::Task<void> CmlWorld::transport(Rank src, Rank dst, DataSize bytes) {
  RR_EXPECTS(src >= 0 && src < size_);
  RR_EXPECTS(dst >= 0 && dst < size_ && dst != src);
  const arch::Mapping m = mapping();
  return net_.spe_transfer(m.node_of(src), m.socket_of(src), m.node_of(dst),
                           m.socket_of(dst), bytes);
}

void CmlWorld::deliver(Rank dst, Message msg) {
  RR_EXPECTS(dst >= 0 && dst < size_);
  Endpoint& ep = endpoints_[static_cast<std::size_t>(dst)];
  RecvAwaiter* const w = ep.waiter;
  if (w == nullptr) {
    ep.arrived.push_back(std::move(msg));
    return;
  }
  ep.waiter = nullptr;
  w->waiting_ = false;
  if (w->matches(msg)) {
    w->slot_ = std::move(msg);
    sim_->schedule_resume(Duration::zero(), w->handle_);
    return;
  }
  ep.arrived.push_back(std::move(msg));
  sim_->schedule(Duration::zero(), [this, w] { retry(*w); });
}

bool CmlWorld::take(RecvAwaiter& w) {
  std::vector<Message>& arrived = endpoints_[static_cast<std::size_t>(w.dst_)].arrived;
  for (auto it = arrived.begin(); it != arrived.end(); ++it) {
    if (w.matches(*it)) {
      w.slot_ = std::move(*it);
      arrived.erase(it);
      return true;
    }
  }
  return false;
}

void CmlWorld::wait(RecvAwaiter& w) {
  Endpoint& ep = endpoints_[static_cast<std::size_t>(w.dst_)];
  RR_EXPECTS(ep.waiter == nullptr);  // one waiting receive per rank
  ep.waiter = &w;
  w.waiting_ = true;
}

void CmlWorld::retry(RecvAwaiter& w) {
  if (take(w))
    w.handle_.resume();
  else
    wait(w);
}

std::size_t CmlWorld::run(const std::function<sim::Task<void>(CmlContext)>& program) {
  sim::TaskRegistry reg(*sim_);
  for (Rank r = 0; r < size_; ++r) reg.spawn(program(CmlContext(*this, r)));
  return reg.drain();
}

// ---------------------------------------------------------------------------
// Awaiters
// ---------------------------------------------------------------------------

SendAwaiter::SendAwaiter(CmlWorld& world, Rank src, Rank dst, int tag,
                         std::vector<double> payload, DataSize bytes)
    : world_(&world),
      route_(dst != src ? world.transport(src, dst, bytes) : sim::Task<void>{}),
      msg_{src, tag, std::move(payload)},
      dst_(dst) {}

void SendAwaiter::await_resume() {
  if (route_.valid())
    if (const std::exception_ptr failure = route_.failure())
      std::rethrow_exception(failure);
  world_->deliver(dst_, std::move(msg_));
}

void RecvAwaiter::stop_waiting() {
  world_->endpoints_[static_cast<std::size_t>(dst_)].waiter = nullptr;
}

bool RecvAwaiter::await_ready() { return world_->take(*this); }

void RecvAwaiter::await_suspend(std::coroutine_handle<> h) {
  handle_ = h;
  world_->wait(*this);
}

// ---------------------------------------------------------------------------
// CmlContext
// ---------------------------------------------------------------------------

int CmlContext::size() const { return world_->size(); }

SendAwaiter CmlContext::send(Rank dst, int tag, std::vector<double> payload) {
  RR_EXPECTS(tag >= 0);  // negative tags are the collectives'
  return send_any_tag(dst, tag, std::move(payload));
}

SendAwaiter CmlContext::send_any_tag(Rank dst, int tag, std::vector<double> payload) {
  const DataSize bytes = message_bytes(payload);
  return SendAwaiter(*world_, rank_, dst, tag, std::move(payload), bytes);
}

SendAwaiter CmlContext::send_sized(Rank dst, int tag, std::size_t doubles) {
  RR_EXPECTS(tag >= 0);
  return SendAwaiter(*world_, rank_, dst, tag, {}, comm::message_bytes(doubles));
}

RecvAwaiter CmlContext::recv(Rank src, int tag) {
  RR_EXPECTS(src == kAnySource || (src >= 0 && src < size()));
  RR_EXPECTS(tag >= kAnyTag);
  return recv_any_tag(src, tag);
}

RecvAwaiter CmlContext::recv_any_tag(Rank src, int tag) {
  return RecvAwaiter(*world_, rank_, src, tag);
}

sim::Task<void> CmlContext::barrier() {
  // Dissemination barrier: ceil(log2(n)) rounds of paired messages.
  const int n = size();
  int round = 0;
  for (int dist = 1; dist < n; dist *= 2, ++round) {
    const Rank to = (rank_ + dist) % n;
    const Rank from = (rank_ - dist % n + n) % n;
    co_await send_any_tag(to, kBarrierTagBase - round, {});
    co_await recv_any_tag(from, kBarrierTagBase - round);
  }
}

sim::Task<std::vector<double>> CmlContext::broadcast(Rank root,
                                                     std::vector<double> data) {
  const int n = size();
  const int vrank = (rank_ - root % n + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const Rank from = ((vrank - mask) + root) % n;
      Message m = co_await recv_any_tag(from, kBcastTag);
      data = std::move(m.payload);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < n) {
      const Rank to = ((vrank + mask) + root) % n;
      co_await send_any_tag(to, kBcastTag, data);
    }
    mask >>= 1;
  }
  co_return data;
}

sim::Task<std::vector<double>> CmlContext::allreduce_sum(
    std::vector<double> contribution) {
  // Binomial-tree reduction to rank 0, then broadcast of the result.
  const int n = size();
  const int vrank = rank_;
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      co_await send_any_tag(vrank - mask, kReduceTag, contribution);
      break;
    }
    if (vrank + mask < n) {
      Message m = co_await recv_any_tag(vrank + mask, kReduceTag);
      RR_ASSERT(m.payload.size() == contribution.size());
      for (std::size_t i = 0; i < contribution.size(); ++i)
        contribution[i] += m.payload[i];
    }
    mask <<= 1;
  }
  co_return co_await broadcast(0, std::move(contribution));
}

sim::Task<std::vector<double>> CmlContext::rpc_ppe(
    std::function<std::vector<double>()> fn, Duration host_time) {
  // Request and response each cross the SPE<->PPE mailbox/DMA path.
  const comm::SimNetwork& net = world_->network();
  co_await sim::Delay{world_->simulator(), net.local_time(DataSize::bytes(64))};
  co_await sim::Delay{world_->simulator(), host_time};
  std::vector<double> result = fn();
  co_await sim::Delay{world_->simulator(), net.local_time(message_bytes(result))};
  co_return result;
}

sim::Task<std::vector<double>> CmlContext::rpc_opteron(
    std::function<std::vector<double>()> fn, Duration host_time) {
  comm::SimNetwork& net = world_->network();
  const arch::Mapping m = world_->mapping();
  const int node_id = m.node_of(rank_);
  const int local_cell = m.socket_of(rank_);
  co_await sim::Delay{world_->simulator(), net.local_time(DataSize::bytes(64))};
  co_await net.dacs_transfer(node_id, local_cell, DataSize::bytes(64));
  co_await sim::Delay{world_->simulator(), host_time};
  std::vector<double> result = fn();
  co_await net.dacs_transfer(node_id, local_cell, message_bytes(result));
  co_await sim::Delay{world_->simulator(), net.local_time(message_bytes(result))};
  co_return result;
}

}  // namespace rr::cml
