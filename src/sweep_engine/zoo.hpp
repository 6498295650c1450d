// Cross-machine topology-zoo study (extension; DESIGN.md §14): the same
// Sweep3D / HPL sweep entry points, latency sweep and degraded-route
// audit, run over every requested zoo machine (topo/machines.hpp) through
// the sweep engine.  One MachineStudy per machine carries the comparative
// hop / latency / resilience table the bench renders and the run report
// embeds.
//
// Everything downstream of the Topology interface is shared: only the
// fabric changes between rows, so a difference in a row is a difference
// the interconnect causes, not a modeling artifact.
#pragma once

#include <string>
#include <vector>

#include "arch/spec.hpp"
#include "fault/resilience_study.hpp"
#include "sweep_engine/engine.hpp"
#include "util/json.hpp"

namespace rr::engine {

struct ZooConfig {
  /// Build the reduced test-scale presets (tests / CI smoke).
  bool small = false;
  /// Timed Sweep3D iterations for the resilience row.
  int sweep_iterations = 50;
  /// Monte-Carlo configuration shared by the HPL and Sweep3D studies.
  fault::StudyConfig fault{};
};

/// One machine's row of the cross-machine comparison.
struct MachineStudy {
  std::string machine;  ///< zoo name ("qpace-torus", ...)
  std::string family;   ///< "fat-tree" | "torus" | "dragonfly"

  // Structure.
  int nodes = 0;
  int crossbars = 0;

  // Deterministic routing, from node 0 (the Table I experiment).
  std::vector<int> hop_histogram;  ///< index = hops; histogram[0] == 1
  double average_hops = 0.0;       ///< mean over all nodes incl. self
  int max_hops = 0;                ///< highest populated histogram bin

  // Zero-byte MPI latency from node 0 to every other node
  // (engine-parallel Fig. 10 sweep over this machine's fabric).
  double latency_min_us = 0.0;
  double latency_mean_us = 0.0;
  double latency_max_us = 0.0;

  // Whole-machine application studies through the existing engine entry
  // points (parallel_hpl_study / parallel_sweep_study); the component
  // census -- and with it the MTBF -- comes from this machine's fabric.
  fault::ResiliencePoint hpl;
  fault::ResiliencePoint sweep3d;

  // Degraded-route audit after a deterministic fault set (a switch
  // chassis where the family has one, otherwise a mid-machine router,
  // plus one cut cable).
  int audit_pairs = 0;
  int audit_unreachable = 0;
  int audit_broken = 0;
  int audit_loops = 0;
  int audit_below_bfs_floor = 0;
  int audit_max_extra_hops = 0;
  bool audit_clean = false;
};

/// Run the study for each named zoo machine in order.  Machines must all
/// satisfy topo::known_machine.  The node-level system spec is shared
/// (the paper's triblade) so the fabric is the only variable.
std::vector<MachineStudy> cross_machine_study(
    SweepEngine& eng, const arch::SystemSpec& system,
    const std::vector<std::string>& machines, const ZooConfig& cfg = {});

/// One JSON object per machine (bench report "machines" extra field).
Json zoo_to_json(const std::vector<MachineStudy>& rows);

}  // namespace rr::engine
