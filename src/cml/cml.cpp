#include "cml/cml.hpp"

#include "util/expect.hpp"

namespace rr::cml {

namespace {
// Internal tag spaces (user tags are >= 0).
constexpr int kBarrierTagBase = -1000;  // minus the round number
constexpr int kBcastTag = -2000;
constexpr int kReduceTag = -3000;
}  // namespace

DataSize message_bytes(const std::vector<double>& payload) {
  return comm::message_bytes(payload.size());
}

CmlWorld::CmlWorld(sim::Simulator& sim, const topo::Topology& topo, CmlConfig config)
    : sim_(&sim),
      config_(config),
      size_(config.nodes * config.cells_per_node * config.spes_per_cell),
      net_(sim, topo, comm::NetworkConfig{config.cells_per_node, config.best_case_pcie}) {
  RR_EXPECTS(config.nodes >= 1 && config.nodes <= topo.node_count());
  RR_EXPECTS(config.cells_per_node >= 1 && config.spes_per_cell >= 1);
  for (int i = 0; i < size_; ++i) endpoints_.emplace_back(sim);
}

int CmlWorld::node_of(Rank r) const {
  RR_EXPECTS(r >= 0 && r < size_);
  return r / (config_.cells_per_node * config_.spes_per_cell);
}

int CmlWorld::cell_of(Rank r) const {
  RR_EXPECTS(r >= 0 && r < size_);
  return r / config_.spes_per_cell;
}

int CmlWorld::spe_of(Rank r) const {
  RR_EXPECTS(r >= 0 && r < size_);
  return r % config_.spes_per_cell;
}

sim::Task<void> CmlWorld::transport(Rank src, Rank dst, DataSize bytes) {
  RR_EXPECTS(src >= 0 && src < size_);
  RR_EXPECTS(dst >= 0 && dst < size_ && dst != src);
  const int cells = config_.cells_per_node;
  return net_.spe_transfer(node_of(src), cell_of(src) % cells, node_of(dst),
                           cell_of(dst) % cells, bytes);
}

void CmlWorld::deliver(Rank dst, Message msg) {
  RR_EXPECTS(dst >= 0 && dst < size_);
  endpoints_[static_cast<std::size_t>(dst)].box.send(std::move(msg));
}

sim::Task<Message> CmlWorld::match(Rank dst, Rank src, int tag) {
  Endpoint& ep = endpoints_[static_cast<std::size_t>(dst)];
  auto matches = [src, tag](const Message& m) {
    return (src == kAnySource || m.src == src) && (tag == kAnyTag || m.tag == tag);
  };
  // Check messages that arrived earlier but were not matched.
  for (std::size_t i = 0; i < ep.stash.size(); ++i) {
    if (matches(ep.stash[i])) {
      Message m = std::move(ep.stash[i]);
      ep.stash.erase(ep.stash.begin() + static_cast<std::ptrdiff_t>(i));
      co_return m;
    }
  }
  for (;;) {
    Message m = co_await ep.box.receive();
    if (matches(m)) co_return m;
    ep.stash.push_back(std::move(m));
  }
}

std::size_t CmlWorld::run(const std::function<sim::Task<void>(CmlContext)>& program) {
  sim::TaskRegistry reg(*sim_);
  for (Rank r = 0; r < size_; ++r) reg.spawn(program(CmlContext(*this, r)));
  return reg.drain();
}

// ---------------------------------------------------------------------------
// CmlContext
// ---------------------------------------------------------------------------

int CmlContext::size() const { return world_->size(); }
int CmlContext::node() const { return world_->node_of(rank_); }
int CmlContext::cell() const { return world_->cell_of(rank_); }

sim::Task<void> CmlContext::send(Rank dst, int tag, std::vector<double> payload) {
  // A message to oneself crosses nothing.
  if (dst != rank_) co_await world_->transport(rank_, dst, message_bytes(payload));
  world_->deliver(dst, Message{rank_, tag, std::move(payload)});
}

sim::Task<void> CmlContext::send_sized(Rank dst, int tag, std::size_t doubles) {
  if (dst != rank_)
    co_await world_->transport(rank_, dst, comm::message_bytes(doubles));
  world_->deliver(dst, Message{rank_, tag, {}});
}

sim::Task<Message> CmlContext::recv(Rank src, int tag) {
  return world_->match(rank_, src, tag);
}

sim::Task<void> CmlContext::barrier() {
  // Dissemination barrier: ceil(log2(n)) rounds of paired messages.
  const int n = size();
  int round = 0;
  for (int dist = 1; dist < n; dist *= 2, ++round) {
    const Rank to = (rank_ + dist) % n;
    const Rank from = (rank_ - dist % n + n) % n;
    co_await send(to, kBarrierTagBase - round, {});
    co_await recv(from, kBarrierTagBase - round);
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
      Message m = co_await recv(from, kBcastTag);
      data = std::move(m.payload);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < n) {
      const Rank to = ((vrank + mask) + root) % n;
      co_await send(to, kBcastTag, data);
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
      co_await send(vrank - mask, kReduceTag, contribution);
      break;
    }
    if (vrank + mask < n) {
      Message m = co_await recv(vrank + mask, kReduceTag);
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
  const int node_id = node();
  const int local_cell = cell() % world_->config().cells_per_node;
  co_await sim::Delay{world_->simulator(), net.local_time(DataSize::bytes(64))};
  co_await net.dacs_transfer(node_id, local_cell, DataSize::bytes(64));
  co_await sim::Delay{world_->simulator(), host_time};
  std::vector<double> result = fn();
  co_await net.dacs_transfer(node_id, local_cell, message_bytes(result));
  co_await sim::Delay{world_->simulator(), net.local_time(message_bytes(result))};
  co_return result;
}

}  // namespace rr::cml
