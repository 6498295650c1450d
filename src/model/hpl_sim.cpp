#include "model/hpl_sim.hpp"

#include <algorithm>

#include "model/linpack.hpp"
#include "spu/kernels.hpp"
#include "spu/pipeline.hpp"
#include "util/expect.hpp"

namespace rr::model {

HplSimResult simulate_hpl(const arch::SystemSpec& system, const HplSimParams& p) {
  RR_EXPECTS(p.n > 0 && p.nb > 0);
  RR_EXPECTS(p.grid_p * p.grid_q == system.node_count());

  // Per-node sustained DGEMM rate: all four Cells at the SPU-simulator
  // kernel efficiency, discounted for PCIe operand staging.
  const double kernel_eff = spu::dgemm_kernel_efficiency(
      spu::SpuPipeline{spu::PipelineSpec::powerxcell_8i()});
  // Cells carry the bulk; the Opterons and PPEs work the update
  // concurrently (Section III's description of IBM's hybrid LINPACK).
  const double node_dgemm_flops =
      system.node.spe_peak(arch::Precision::kDouble).in_flops() * kernel_eff *
          p.dgemm_staging_efficiency +
      system.node.opteron_peak(arch::Precision::kDouble).in_flops() *
          p.host_dgemm_efficiency +
      system.node.ppe_peak(arch::Precision::kDouble).in_flops() *
          p.ppe_dgemm_efficiency;
  const double machine_dgemm_flops = node_dgemm_flops * system.node_count();

  // Panel factorization runs on the Opterons of one node column.
  const double column_panel_flops =
      system.node.opteron_peak(arch::Precision::kDouble).in_flops() *
      p.panel_core_efficiency * p.grid_p;

  HplSimResult r;
  const std::int64_t steps = p.n / p.nb;
  r.steps = static_cast<int>(steps);

  double dgemm_s = 0.0, panel_s = 0.0, bcast_s = 0.0, exposed_s = 0.0;
  const double nb = p.nb;
  for (std::int64_t k = 0; k < steps; ++k) {
    const double m = static_cast<double>(p.n) - static_cast<double>(k) * nb;
    // Panel: LU of an m x nb column strip (~ m * nb^2 flops).
    const double t_panel = m * nb * nb / column_panel_flops;
    // Broadcast: the panel's rows are distributed over the P nodes of the
    // column, so each node row broadcasts an (m / P) x nb slice across its
    // Q-node row (scatter-allgather: ~2x the slice over one link).
    const double slice_bytes = m * nb * 8.0 / p.grid_p;
    const double t_bcast = 2.0 * slice_bytes / p.bcast_bandwidth.bps();
    // Trailing update: 2 * m' * m' * nb flops spread over every node.
    const double mp = std::max(0.0, m - nb);
    const double t_dgemm = 2.0 * mp * mp * nb / machine_dgemm_flops;

    dgemm_s += t_dgemm;
    panel_s += t_panel;
    bcast_s += t_bcast;
    if (p.lookahead) {
      // The next panel + its broadcast proceed under the current update;
      // only the excess beyond the update is exposed.
      exposed_s += std::max(0.0, t_panel + t_bcast - t_dgemm);
    } else {
      exposed_s += t_panel + t_bcast;
    }
  }

  const double total_s = dgemm_s + exposed_s;
  r.total = Duration::seconds(total_s);
  r.dgemm_time = Duration::seconds(dgemm_s);
  r.panel_time = Duration::seconds(panel_s);
  r.bcast_time = Duration::seconds(bcast_s);
  r.exposed_non_dgemm = Duration::seconds(exposed_s);
  const double dn = static_cast<double>(p.n);
  r.sustained = FlopRate::flops(2.0 / 3.0 * dn * dn * dn / total_s);
  r.efficiency =
      r.sustained.in_flops() / system.system_peak(arch::Precision::kDouble).in_flops();
  return r;
}

}  // namespace rr::model
