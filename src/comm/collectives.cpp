#include "comm/collectives.hpp"

#include "arch/calibration.hpp"
#include "arch/mapping.hpp"
#include "comm/path.hpp"
#include "util/expect.hpp"

namespace rr::comm {

namespace cal = rr::arch::cal;

CollectiveLegs CollectiveLegs::roadrunner(DataSize payload, bool best_case_pcie) {
  CollectiveLegs legs;
  const ChannelModel eib{cml_eib()};
  legs.intra_socket = eib.one_way(payload);

  const ChannelModel pcie{cell_pcie(best_case_pcie)};
  // SPE -> PPE -> Opteron -> PPE -> SPE within one node: two local legs
  // plus two PCIe crossings.
  legs.cross_socket = cal::kAnchorSpeLocalLeg * 2 + pcie.one_way(payload) * 2;

  const PathModel inter = cell_to_cell_internode(3, RelayMode::kStoreAndForward);
  legs.internode = inter.one_way(payload);
  if (best_case_pcie) {
    // Replace the two DaCS legs' latency with raw PCIe latency.
    legs.internode = legs.internode -
                     (cal::kAnchorDacsLatency - cal::kPcieAchievableLatency) * 2;
  }
  return legs;
}

int barrier_rounds(int n) {
  RR_EXPECTS(n >= 1);
  int rounds = 0;
  for (int dist = 1; dist < n; dist *= 2) ++rounds;
  return rounds;
}

int binomial_rounds(int n) { return barrier_rounds(n); }

Duration barrier_time(int n, const CollectiveLegs& legs) {
  RR_EXPECTS(n >= 1);
  constexpr arch::Mapping m = arch::kSpeCentric;
  Duration total = Duration::zero();
  for (int dist = 1; dist < n; dist *= 2)
    total += dist < m.ranks_per_socket  ? legs.intra_socket
             : dist < m.ranks_per_node() ? legs.cross_socket
                                         : legs.internode;
  return total;
}

Duration broadcast_time(int n, const CollectiveLegs& legs) {
  // Binomial tree: the critical path takes the widest leg at each level;
  // the first level spans the largest distance.
  return barrier_time(n, legs);
}

Duration allreduce_time(int n, const CollectiveLegs& legs) {
  return broadcast_time(n, legs) * 2;
}

}  // namespace rr::comm
