// Sweep3D exactly as the paper built it (Sections V.B-C): the KBA
// (Koch-Baker-Alcouffe) wavefront decomposition of Section V.A over SPE
// ranks.  The grid is decomposed over a logical 2-D px x py rank array in
// I and J; the K dimension is split into blocks of mk planes, the unit of
// pipelined work, and each block carries all six angles of an octant, so
// a rank sends one message per block through each downstream face.  Each
// rank owns a static subgrid, boundary angular fluxes travel as CML
// messages, and the whole thing runs on the simulated machine.  This is
// the *functional* and *timed* layer in one: the fluxes are real, and the
// completion time is simulated time over the calibrated transports with
// link contention.
//
// The sweep is bitwise-identical to the serial solver: diamond
// differencing is a pure upstream recurrence, so cell updates see the
// same operands in the same order regardless of the decomposition.
//
// sweep_once_cml_sized runs the same rank program with sizes only: no
// flux arrays, and every message is sent with send_sized.  Its simulated
// time and legs equal sweep_once_cml's on the same grid; it is the timed
// iteration behind model::simulate_iteration.
#pragma once

#include "cml/cml.hpp"
#include "sweep/solver.hpp"

namespace rr::sweep {

struct KbaConfig {
  int px = 2;   ///< ranks in I
  int py = 2;   ///< ranks in J
  int mk = 4;   ///< K planes per block (the paper's MK); nz/mk blocks

  int ranks() const { return px * py; }
};

struct CmlSweepResult {
  SweepResult sweep;        ///< real fluxes, leakage, fixups (empty when sized)
  Duration simulated_time;  ///< time on the modeled machine
  /// Transport legs (SimNetwork::messages_sent), not CML messages: one
  /// EIB leg within a Cell, two DaCS legs between Cells, plus an IB leg
  /// between nodes.
  std::uint64_t messages = 0;
  std::uint64_t events = 0;  ///< simulator events fired (Simulator::events_run)
  int ranks = 0;
};

/// One full sweep (all octants/angles) with the given emission, on a
/// px x py rank array inside `world` (ranks are SPE ranks; world.size()
/// must be >= cfg.ranks()).  Requires nx % px == 0, ny % py == 0 and
/// nz % mk == 0.  `per_cell_angle` is the SPE compute cost
/// charged per cell-angle update (e.g. model::spe_compute(...)).
CmlSweepResult sweep_once_cml(const Problem& p,
                              const std::vector<double>& emission,
                              const KbaConfig& cfg, cml::CmlWorld& world,
                              Duration per_cell_angle);

/// sweep_once_cml's program on an nx x ny x nz grid with sizes only: the
/// same simulated time and legs, and no fluxes (`sweep` stays empty).
CmlSweepResult sweep_once_cml_sized(int nx, int ny, int nz, const KbaConfig& cfg,
                                    cml::CmlWorld& world, Duration per_cell_angle);

}  // namespace rr::sweep
