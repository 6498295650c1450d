#include "comm/network.hpp"

#include "obs/metrics.hpp"
#include "util/expect.hpp"

namespace rr::comm {

SimNetwork::SimNetwork(sim::Simulator& sim, const topo::Topology& topo,
                       NetworkConfig config)
    : sim_(&sim),
      topo_(&topo),
      config_(config),
      eib_(cml_eib()),
      dacs_(config.best_case_pcie ? pcie_raw() : dacs_pcie()),
      mpi_(mpi_infiniband(true)),
      fabric_(topo) {
  RR_EXPECTS(config_.cells_per_node >= 1);
  hca_tx_.reserve(topo.node_count());
  for (int i = 0; i < topo.node_count(); ++i)
    hca_tx_.push_back(std::make_unique<sim::Resource>(sim, 1));
  const std::size_t pcie_count =
      static_cast<std::size_t>(topo.node_count()) * config_.cells_per_node;
  pcie_.reserve(pcie_count);
  for (std::size_t i = 0; i < pcie_count; ++i)
    pcie_.push_back(std::make_unique<sim::Resource>(sim, 1));
  hca_busy_.resize(hca_tx_.size());
  pcie_busy_.resize(pcie_.size());
}

Duration SimNetwork::ib_busy(int node) const {
  RR_EXPECTS(node >= 0 && node < topo_->node_count());
  return hca_busy_[static_cast<std::size_t>(node)];
}

Duration SimNetwork::pcie_busy(int node, int cell) const {
  RR_EXPECTS(node >= 0 && node < topo_->node_count());
  RR_EXPECTS(cell >= 0 && cell < config_.cells_per_node);
  return pcie_busy_[static_cast<std::size_t>(node) * config_.cells_per_node +
                    cell];
}

void SimNetwork::export_metrics(obs::MetricsRegistry& reg,
                                const std::string& prefix) const {
  const double now_ps = static_cast<double>(sim_->now().ps());
  const auto utilization = [now_ps](Duration busy) {
    return now_ps > 0.0 ? static_cast<double>(busy.ps()) / now_ps : 0.0;
  };
  for (std::size_t i = 0; i < hca_busy_.size(); ++i) {
    if (hca_busy_[i] == Duration::zero()) continue;
    reg.gauge(prefix + ".link.ib.node" + std::to_string(i) + ".utilization")
        .set(utilization(hca_busy_[i]));
  }
  for (std::size_t i = 0; i < pcie_busy_.size(); ++i) {
    if (pcie_busy_[i] == Duration::zero()) continue;
    const std::size_t node =
        i / static_cast<std::size_t>(config_.cells_per_node);
    const std::size_t cell =
        i % static_cast<std::size_t>(config_.cells_per_node);
    reg.gauge(prefix + ".link.pcie.node" + std::to_string(node) + ".cell" +
              std::to_string(cell) + ".utilization")
        .set(utilization(pcie_busy_[i]));
  }
  if (eib_busy_ != Duration::zero())
    reg.gauge(prefix + ".link.eib.utilization").set(utilization(eib_busy_));
  reg.gauge(prefix + ".messages_sent")
      .set(static_cast<double>(messages_sent_));
  reg.gauge(prefix + ".bytes_sent").set(static_cast<double>(bytes_sent_));
}

Duration SimNetwork::eib_time(DataSize n) const { return eib_.one_way(n); }

Duration SimNetwork::dacs_time(DataSize n) const { return dacs_.one_way(n); }

Duration SimNetwork::ib_time(int src_node, int dst_node, DataSize n) const {
  const Duration hops =
      kPerHopLatency * topo_->hop_count(topo::NodeId{src_node}, topo::NodeId{dst_node});
  return mpi_.one_way(n) + hops;
}

sim::Task<void> SimNetwork::eib_transfer(DataSize n) {
  ++messages_sent_;
  bytes_sent_ += n.b();
  const auto span = trace_ ? trace_->begin("eib " + std::to_string(n.b()) + "B",
                                           "eib", sim_->now())
                           : sim::TraceRecorder::SpanId{};
  const Duration service = eib_time(n);
  eib_busy_ = eib_busy_ + service;
  co_await sim::Delay{*sim_, service};
  if (trace_) trace_->end(span, sim_->now());
}

sim::Task<void> SimNetwork::dacs_transfer(int node, int cell, DataSize n) {
  RR_EXPECTS(node >= 0 && node < topo_->node_count());
  RR_EXPECTS(cell >= 0 && cell < config_.cells_per_node);
  ++messages_sent_;
  bytes_sent_ += n.b();
  const std::size_t li = static_cast<std::size_t>(node) * config_.cells_per_node + cell;
  sim::Resource& link = *pcie_[li];
  co_await link.acquire();
  const auto span =
      trace_ ? trace_->begin("dacs " + std::to_string(n.b()) + "B",
                             "pcie/node" + std::to_string(node) + ".cell" +
                                 std::to_string(cell),
                             sim_->now())
             : sim::TraceRecorder::SpanId{};
  const Duration service = dacs_time(n);
  pcie_busy_[li] = pcie_busy_[li] + service;
  co_await sim::Delay{*sim_, service};
  if (trace_) trace_->end(span, sim_->now());
  link.release();
}

sim::Task<void> SimNetwork::ib_transfer(int src_node, int dst_node, DataSize n) {
  RR_EXPECTS(src_node >= 0 && src_node < topo_->node_count());
  RR_EXPECTS(dst_node >= 0 && dst_node < topo_->node_count());
  ++messages_sent_;
  bytes_sent_ += n.b();
  sim::Resource& hca = *hca_tx_[src_node];
  co_await hca.acquire();
  const auto span = trace_ ? trace_->begin("ib " + std::to_string(n.b()) + "B to n" +
                                               std::to_string(dst_node),
                                           "ib/node" + std::to_string(src_node),
                                           sim_->now())
                           : sim::TraceRecorder::SpanId{};
  const Duration service = ib_time(src_node, dst_node, n);
  hca_busy_[static_cast<std::size_t>(src_node)] =
      hca_busy_[static_cast<std::size_t>(src_node)] + service;
  co_await sim::Delay{*sim_, service};
  if (trace_) trace_->end(span, sim_->now());
  hca.release();
}

}  // namespace rr::comm
