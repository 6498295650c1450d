#include "sweep_engine/studies.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace rr::engine {

std::vector<fault::ResiliencePoint> parallel_hpl_study(
    SweepEngine& eng, const arch::SystemSpec& system,
    const topo::FatTree& full_topo, const std::vector<int>& node_counts,
    const fault::StudyConfig& cfg) {
  return eng.map<fault::ResiliencePoint>(
      static_cast<int>(node_counts.size()), [&](int i) {
        const int nodes = node_counts[static_cast<std::size_t>(i)];
        return fault::study_point(system, full_topo, nodes,
                                  fault::hpl_fault_free_s(system, nodes), cfg);
      });
}

std::vector<fault::ResiliencePoint> parallel_sweep_study(
    SweepEngine& eng, const arch::SystemSpec& system,
    const topo::FatTree& full_topo, const std::vector<int>& node_counts,
    int iterations, const fault::StudyConfig& cfg) {
  RR_EXPECTS(iterations >= 1);
  // The fault-free time is scale_point().cell_measured_s * iterations,
  // exactly as fault::sweep_fault_free_s computes it -- but with the SPE
  // rate tables from the shared context instead of a fresh SPU pipeline
  // simulation per point.
  const SharedContext& ctx = SharedContext::instance();
  return eng.map<fault::ResiliencePoint>(
      static_cast<int>(node_counts.size()), [&](int i) {
        const int nodes = node_counts[static_cast<std::size_t>(i)];
        const double fault_free_s =
            model::scale_point(nodes, {}, ctx.spe_pxc(), ctx.opteron_1800())
                .cell_measured_s *
            iterations;
        return fault::study_point(system, full_topo, nodes, fault_free_s, cfg);
      });
}

std::vector<fault::IntervalPoint> parallel_interval_sweep(
    SweepEngine& eng, const arch::SystemSpec& system,
    const topo::FatTree& full_topo, int nodes, double fault_free_s,
    const std::vector<double>& multiples, const fault::StudyConfig& cfg) {
  return eng.map<fault::IntervalPoint>(
      static_cast<int>(multiples.size()), [&](int i) {
        // Serial interval_sweep salts the Monte-Carlo seed with the point
        // index + 1; replay the same salt so streams line up.
        return fault::interval_point(system, full_topo, nodes, fault_free_s,
                                     multiples[static_cast<std::size_t>(i)],
                                     i + 1, cfg);
      });
}

std::vector<model::ScalePoint> parallel_scale_series(
    SweepEngine& eng, const std::vector<int>& node_counts,
    const model::SweepWorkload& w) {
  const SharedContext& ctx = SharedContext::instance();
  return eng.map<model::ScalePoint>(
      static_cast<int>(node_counts.size()), [&](int i) {
        return model::scale_point(node_counts[static_cast<std::size_t>(i)], w,
                                  ctx.spe_pxc(), ctx.opteron_1800());
      });
}

Json hpl_campaign_params(const std::vector<int>& node_counts,
                         const fault::StudyConfig& cfg) {
  Json nodes = Json::array();
  for (const int n : node_counts) nodes.push_back(n);
  Json p = Json::object();
  p.set("study", "hpl_resilience")
      .set("nodes", std::move(nodes))
      .set("replications", cfg.replications)
      // Decimal string: a 64-bit seed does not survive a double round trip.
      .set("seed", std::to_string(cfg.seed))
      .set("state_per_node_bytes", std::to_string(cfg.state_per_node.b()))
      .set("restart_s", cfg.restart_s);
  return p;
}

std::vector<comm::LatencySweepPoint> parallel_latency_sweep(
    SweepEngine& eng, const comm::FabricModel& fabric, topo::NodeId src) {
  const int n = fabric.topology().node_count();
  // Coarse chunks: one scenario per span of destinations, reassembled in
  // node order so the result is identical to the serial sweep.
  const int chunk = std::max(64, n / (8 * std::max(1, eng.threads())));
  const int chunks = (n + chunk - 1) / chunk;
  const auto parts = eng.map<std::vector<comm::LatencySweepPoint>>(
      chunks, [&](int c) {
        const int lo = c * chunk;
        const int hi = std::min(n, lo + chunk);
        std::vector<comm::LatencySweepPoint> pts;
        pts.reserve(static_cast<std::size_t>(hi - lo));
        for (int d = lo; d < hi; ++d) {
          if (d == src.v) continue;
          comm::LatencySweepPoint pt;
          pt.node = d;
          pt.hops = fabric.topology().hop_count(src, topo::NodeId{d});
          pt.latency = fabric.zero_byte_latency(src, topo::NodeId{d});
          pts.push_back(pt);
        }
        return pts;
      });
  std::vector<comm::LatencySweepPoint> out;
  out.reserve(static_cast<std::size_t>(n));
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

}  // namespace rr::engine
