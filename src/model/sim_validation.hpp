// Cross-validation of the analytic wavefront model against the
// discrete-event simulation: the same Sweep3D iteration is executed as a
// CML rank program -- sweep::sweep_once_cml_sized, the KBA program whose
// fluxes sweep_once_cml checks bitwise against the serial solver, run
// with size-only messages over the contended DES transport and block
// compute charged as simulated time -- and its iteration time is
// compared with estimate_iteration()'s closed form.
//
// This mirrors what the paper did at machine scale -- validate the Hoisie
// model against measurements -- except our "measurement" is the DES.
#pragma once

#include "cml/cml.hpp"
#include "model/sweep_model.hpp"

namespace rr::model {

struct SimulatedIteration {
  Duration total;             ///< simulated wall time of one iteration
  std::uint64_t messages = 0; ///< transport legs (SimNetwork::messages_sent)
  std::uint64_t events = 0;   ///< simulator events fired (Simulator::events_run)
  std::size_t ranks = 0;
};

/// Execute one Sweep3D iteration on a px x py rank array inside the DES.
/// Ranks are mapped onto triblade nodes 32-per-node in rank order; the
/// communication mode follows from the CML transport (early or best-case
/// PCIe).  Requires px*py <= 32 * topology node count.
SimulatedIteration simulate_iteration(const SweepWorkload& w, int px, int py,
                                      const SweepCompute& compute,
                                      const topo::FatTree& topo,
                                      bool best_case_pcie = false);

/// Convenience: relative gap between the DES result and the analytic
/// estimate, |des - model| / des.
double model_vs_des_gap(const SweepWorkload& w, int px, int py,
                        const SweepCompute& compute, const topo::FatTree& topo);

}  // namespace rr::model
