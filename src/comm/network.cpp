#include "comm/network.hpp"

#include "arch/calibration.hpp"
#include "obs/metrics.hpp"
#include "util/expect.hpp"

namespace rr::comm {

SimNetwork::SimNetwork(sim::Simulator& sim, const topo::Topology& topo,
                       NetworkConfig config)
    : sim_(&sim),
      topo_(&topo),
      config_(config),
      eib_(cml_eib()),
      dacs_(cell_pcie(config.best_case_pcie)),
      mpi_(mpi_infiniband(true)) {
  RR_EXPECTS(config_.cells_per_node >= 1);
  for (int i = 0; i < topo.node_count(); ++i) {
    hca_.emplace_back(sim);
    for (int c = 0; c < config_.cells_per_node; ++c) pcie_.emplace_back(sim);
  }
}

Duration SimNetwork::ib_busy(int node) const {
  RR_EXPECTS(node >= 0 && node < topo_->node_count());
  return hca_[static_cast<std::size_t>(node)].busy;
}

Duration SimNetwork::pcie_busy(int node, int cell) const {
  RR_EXPECTS(node >= 0 && node < topo_->node_count());
  RR_EXPECTS(cell >= 0 && cell < config_.cells_per_node);
  return pcie_[static_cast<std::size_t>(node) * config_.cells_per_node + cell]
      .busy;
}

void SimNetwork::export_metrics(obs::MetricsRegistry& reg,
                                const std::string& prefix) const {
  const double now_ps = static_cast<double>(sim_->now().ps());
  const auto utilization = [now_ps](Duration busy) {
    return now_ps > 0.0 ? static_cast<double>(busy.ps()) / now_ps : 0.0;
  };
  for (std::size_t i = 0; i < hca_.size(); ++i) {
    if (hca_[i].busy == Duration::zero()) continue;
    reg.gauge(prefix + ".link.ib.node" + std::to_string(i) + ".utilization")
        .set(utilization(hca_[i].busy));
  }
  for (std::size_t i = 0; i < pcie_.size(); ++i) {
    if (pcie_[i].busy == Duration::zero()) continue;
    const std::size_t node =
        i / static_cast<std::size_t>(config_.cells_per_node);
    const std::size_t cell =
        i % static_cast<std::size_t>(config_.cells_per_node);
    reg.gauge(prefix + ".link.pcie.node" + std::to_string(node) + ".cell" +
              std::to_string(cell) + ".utilization")
        .set(utilization(pcie_[i].busy));
  }
  if (eib_busy_ != Duration::zero())
    reg.gauge(prefix + ".link.eib.busy_s").set(eib_busy_.sec());
  reg.gauge(prefix + ".messages_sent")
      .set(static_cast<double>(messages_sent_));
  reg.gauge(prefix + ".bytes_sent").set(static_cast<double>(bytes_sent_));
}

Duration SimNetwork::eib_time(DataSize n) const { return eib_.one_way(n); }

Duration SimNetwork::dacs_time(DataSize n) const { return dacs_.one_way(n); }

Duration SimNetwork::ib_time(int src_node, int dst_node, DataSize n) const {
  const Duration hops = arch::cal::kSwitchHopLatency *
                        topo_->hop_count(topo::NodeId{src_node}, topo::NodeId{dst_node});
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
  return cross(pcie_[static_cast<std::size_t>(node) * config_.cells_per_node + cell],
               dacs_time(n), n, Leg{false, node, cell});
}

sim::Task<void> SimNetwork::ib_transfer(int src_node, int dst_node, DataSize n) {
  RR_EXPECTS(src_node >= 0 && src_node < topo_->node_count());
  RR_EXPECTS(dst_node >= 0 && dst_node < topo_->node_count());
  return cross(hca_[static_cast<std::size_t>(src_node)],
               ib_time(src_node, dst_node, n), n, Leg{true, src_node, dst_node});
}

sim::TraceRecorder::SpanId SimNetwork::open_span(Leg leg, DataSize n) const {
  if (!trace_) return {};
  const std::string node = "node" + std::to_string(leg.node);
  if (leg.ib)
    return trace_->begin("ib " + std::to_string(n.b()) + "B to n" +
                             std::to_string(leg.other),
                         "ib/" + node, sim_->now());
  return trace_->begin("dacs " + std::to_string(n.b()) + "B",
                       "pcie/" + node + ".cell" + std::to_string(leg.other),
                       sim_->now());
}

sim::Task<void> SimNetwork::cross(Link& link, Duration service, DataSize n,
                                  Leg leg) {
  ++messages_sent_;
  bytes_sent_ += n.b();
  co_await link.token.acquire();
  const auto span = open_span(leg, n);
  link.busy += service;
  co_await sim::Delay{*sim_, service};
  if (trace_) trace_->end(span, sim_->now());
  link.token.release();
}

}  // namespace rr::comm
