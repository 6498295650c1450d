// Analytic cost models for the collective operations CML provides
// (Section V.C: "barriers, broadcasts, and data reductions").  These give
// closed forms for the tree algorithms the functional layer implements;
// tests cross-validate them against the discrete-event execution.
#pragma once

#include "comm/channel.hpp"

namespace rr::comm {

/// Communication cost parameters of one collective step between the
/// "widest" pair of ranks involved (worst-case leg).
struct CollectiveLegs {
  Duration intra_socket;   ///< SPE<->SPE over the EIB
  Duration cross_socket;   ///< through PPE/DaCS within a node
  Duration internode;      ///< full Cell-Opteron-Opteron-Cell path

  /// Legs of the modeled Roadrunner software stack for a payload size.
  static CollectiveLegs roadrunner(DataSize payload,
                                   bool best_case_pcie = false);
};

/// Rounds of a dissemination barrier over n ranks.
int barrier_rounds(int n);

/// Rounds (tree depth) of a binomial broadcast/reduction over n ranks.
int binomial_rounds(int n);

/// Worst-case completion time of a dissemination barrier over n SPE ranks
/// placed by arch::kSpeCentric, where each round may cross the widest leg:
/// round k's partner is 2^k ranks away, so the rounds shorter than a
/// socket stay on the EIB and those shorter than a node stay in it.
Duration barrier_time(int n, const CollectiveLegs& legs);

/// Binomial broadcast completion time (depth x widest active leg): the
/// same rounds as the barrier.
Duration broadcast_time(int n, const CollectiveLegs& legs);

/// Allreduce = reduce + broadcast over the same tree.
Duration allreduce_time(int n, const CollectiveLegs& legs);

}  // namespace rr::comm
