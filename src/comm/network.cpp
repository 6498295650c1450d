#include "comm/network.hpp"

#include "arch/calibration.hpp"
#include "obs/metrics.hpp"
#include "util/expect.hpp"

namespace rr::comm {

SimNetwork::SimNetwork(sim::Simulator& sim, const topo::FatTree& topo,
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

Duration SimNetwork::local_time(DataSize n) const {
  // SPE<->PPE handoff: 0.12 us plus payload over the EIB (Fig. 6).
  return arch::cal::kAnchorSpeLocalLeg +
         transfer_time(n, Bandwidth::gb_per_sec(23.5));
}

Duration SimNetwork::eib_time(DataSize n) const { return eib_.one_way(n); }

Duration SimNetwork::dacs_time(DataSize n) const { return dacs_.one_way(n); }

Duration SimNetwork::ib_time(int src_node, int dst_node, DataSize n) const {
  return mpi_.one_way(n) + hop_time(src_node, dst_node);
}

Duration SimNetwork::hop_time(int src_node, int dst_node) const {
  return arch::cal::kSwitchHopLatency *
         topo_->hop_count(topo::NodeId{src_node}, topo::NodeId{dst_node});
}

const SimNetwork::Prices& SimNetwork::prices(DataSize n) {
  if (prices_[0].n == n) return prices_[0];
  if (prices_[1].n == n) return prices_[1];
  Prices& p = prices_[next_price_];
  next_price_ ^= 1;
  p = Prices{n, local_time(n), eib_time(n), dacs_time(n), mpi_.one_way(n)};
  return p;
}

sim::Task<void> SimNetwork::spe_transfer(int src_node, int src_cell, int dst_node,
                                         int dst_cell, DataSize n) {
  RR_EXPECTS(src_node >= 0 && src_node < topo_->node_count());
  RR_EXPECTS(dst_node >= 0 && dst_node < topo_->node_count());
  RR_EXPECTS(src_cell >= 0 && src_cell < config_.cells_per_node);
  RR_EXPECTS(dst_cell >= 0 && dst_cell < config_.cells_per_node);
  using Kind = Leg::Kind;
  Route r;
  if (src_node == dst_node && src_cell == dst_cell) {
    // Same socket: pure EIB, no PPE involvement (Section V.C).
    r.add({Kind::kEib});
    return route(r, n);
  }
  // The message is DMAed to the PPE, forwarded over DaCS to the Opteron
  // (PPEs are not directly connected on Roadrunner), and descends
  // symmetrically on the destination side.
  r.add({Kind::kLocal});
  r.add({Kind::kPcie, src_node, src_cell});
  if (src_node != dst_node) r.add({Kind::kIb, src_node, dst_node});
  r.add({Kind::kPcie, dst_node, dst_cell});
  r.add({Kind::kLocal});
  return route(r, n);
}

sim::Task<void> SimNetwork::dacs_transfer(int node, int cell, DataSize n) {
  RR_EXPECTS(node >= 0 && node < topo_->node_count());
  RR_EXPECTS(cell >= 0 && cell < config_.cells_per_node);
  Route r;
  r.add({Leg::Kind::kPcie, node, cell});
  return route(r, n);
}

SimNetwork::Link& SimNetwork::link_of(Leg leg) {
  if (leg.kind == Leg::Kind::kIb) return hca_[static_cast<std::size_t>(leg.node)];
  return pcie_[static_cast<std::size_t>(leg.node) * config_.cells_per_node +
               static_cast<std::size_t>(leg.other)];
}

sim::TraceRecorder::SpanId SimNetwork::open_span(Leg leg, DataSize n) const {
  if (!trace_) return {};
  if (leg.kind == Leg::Kind::kEib)
    return trace_->begin("eib " + std::to_string(n.b()) + "B", "eib", sim_->now());
  const std::string node = "node" + std::to_string(leg.node);
  if (leg.kind == Leg::Kind::kIb)
    return trace_->begin("ib " + std::to_string(n.b()) + "B to n" +
                             std::to_string(leg.other),
                         "ib/" + node, sim_->now());
  return trace_->begin("dacs " + std::to_string(n.b()) + "B",
                       "pcie/" + node + ".cell" + std::to_string(leg.other),
                       sim_->now());
}

sim::Task<void> SimNetwork::route(Route r, DataSize n) {
  for (std::size_t i = 0; i < r.size; ++i) {
    const Leg leg = r.legs[i];
    if (leg.kind == Leg::Kind::kLocal) {
      co_await sim::Delay{*sim_, prices(n).local};
      continue;
    }
    ++messages_sent_;
    bytes_sent_ += n.b();
    if (leg.kind == Leg::Kind::kEib) {
      const auto span = open_span(leg, n);
      const Duration service = prices(n).eib;
      eib_busy_ += service;
      co_await sim::Delay{*sim_, service};
      if (trace_) trace_->end(span, sim_->now());
      continue;
    }
    Link& link = link_of(leg);
    co_await link.token.acquire();
    const auto span = open_span(leg, n);
    const Duration service = leg.kind == Leg::Kind::kIb
                                 ? prices(n).mpi + hop_time(leg.node, leg.other)
                                 : prices(n).dacs;
    link.busy += service;
    co_await sim::Delay{*sim_, service};
    if (trace_) trace_->end(span, sim_->now());
    link.token.release();
  }
}

}  // namespace rr::comm
