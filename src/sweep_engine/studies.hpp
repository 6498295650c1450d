// Engine-parallel ports of the hot sweep consumers: the Monte-Carlo
// resilience studies (fault/resilience_study), the Fig. 13/14 Sweep3D
// scaling series, and the Fig. 10 whole-fabric latency sweep.
//
// Determinism contract: every function here returns a vector that is
// bit-identical to its legacy serial counterpart, point for point, for
// any engine thread count.  Scenario seeds reuse fault::study_point_seed
// exactly as the serial loops derive them, and the SPU/topology
// precomputations come from the read-only SharedContext.
#pragma once

#include <optional>
#include <vector>

#include "comm/fabric.hpp"
#include "fault/resilience_study.hpp"
#include "model/sweep_model.hpp"
#include "sweep_engine/context.hpp"
#include "sweep_engine/engine.hpp"
#include "sweep_engine/result_store.hpp"

namespace rr::engine {

/// Parallel fault::hpl_study: one scenario per node count.
std::vector<fault::ResiliencePoint> parallel_hpl_study(
    SweepEngine& eng, const arch::SystemSpec& system,
    const topo::Topology& full_topo, const std::vector<int>& node_counts,
    const fault::StudyConfig& cfg = {}, ResultStore* store = nullptr);

/// Parallel fault::sweep_study (timed Sweep3D under failures).  Uses the
/// memoized SPE rate tables; identical numbers to the serial study.
std::vector<fault::ResiliencePoint> parallel_sweep_study(
    SweepEngine& eng, const arch::SystemSpec& system,
    const topo::Topology& full_topo, const std::vector<int>& node_counts,
    int iterations, const fault::StudyConfig& cfg = {},
    ResultStore* store = nullptr);

/// Parallel fault::interval_sweep at a fixed node count.
std::vector<fault::IntervalPoint> parallel_interval_sweep(
    SweepEngine& eng, const arch::SystemSpec& system,
    const topo::Topology& full_topo, int nodes, double fault_free_s,
    const std::vector<double>& multiples, const fault::StudyConfig& cfg = {},
    ResultStore* store = nullptr);

/// Parallel model::figure13_series, SPU rate tables computed once.
std::vector<model::ScalePoint> parallel_scale_series(
    SweepEngine& eng, const std::vector<int>& node_counts,
    const model::SweepWorkload& w = {}, ResultStore* store = nullptr);

/// Parallel comm::FabricModel::latency_sweep: destinations are chunked
/// across scenarios and reassembled in node order.
std::vector<comm::LatencySweepPoint> parallel_latency_sweep(
    SweepEngine& eng, const comm::FabricModel& fabric, topo::NodeId src);

/// Campaign params of the interrupted-HPL walk: the identity a campaign
/// of parallel_hpl_study's points is journaled and cached under.
Json hpl_campaign_params(const std::vector<int>& node_counts,
                         const fault::StudyConfig& cfg);

}  // namespace rr::engine
