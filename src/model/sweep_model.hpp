// The Sweep3D performance model (Sections V-VI): the wavefront model of
// Hoisie, Lubeck & Wasserman that the paper uses ("validated on most
// large-scale systems over the last decade"), parameterized for
// Roadrunner's processors and communication paths.
//
//   T_iter = steps(px, py, K/MK) * (t_block + t_comm_exposed)
//
// where steps comes from the KBA schedule (sweep/schedule.hpp), t_block is
// the per-rank block compute time, and t_comm_exposed is the per-step
// non-overlapped communication cost of the boundary-surface exchanges.
//
// Compute rates: the SPE per-(cell,angle) time is the SPU pipeline
// simulator's cycle count for the optimized inner loop (spu/kernels.hpp)
// multiplied by a software-expansion factor kKappa -- flux fixup passes,
// line setup, DMA waits -- calibrated ONCE against Table IV's measured
// 0.19 s (PowerXCell 8i, 50^3 per SPE, MK=10).  The Cell BE time follows
// from the same kernel on the Cell BE pipeline (the 1.9x of Section IV.A
// is then a *prediction*, not an input).  Host-core rates are calibrated
// to the Fig. 12 relations.
#pragma once

#include <string>
#include <vector>

#include "arch/spec.hpp"
#include "util/units.hpp"

namespace rr::model {

// ---------------------------------------------------------------------------
// Compute characterization
// ---------------------------------------------------------------------------

struct SweepCompute {
  std::string name;
  Duration per_cell_angle;       ///< one cell, one discrete direction
  /// Slowdown when every core of the socket runs a rank (shared memory
  /// bandwidth); 1.0 for SPEs, whose working set lives in local store.
  double socket_contention = 1.0;
};

/// SPE rate derived from the pipeline simulator (optimized kernel).
SweepCompute spe_compute(arch::CellVariant variant);
/// SPE rate for the previous master/worker implementation (scalar kernel).
SweepCompute spe_compute_previous(arch::CellVariant variant);

SweepCompute opteron_1800_compute();   ///< Roadrunner's dual-core 1.8 GHz
SweepCompute opteron_quad_2000_compute();
SweepCompute tigerton_2930_compute();

// ---------------------------------------------------------------------------
// Communication characterization (per wavefront step, two surfaces)
// ---------------------------------------------------------------------------

enum class CommMode {
  kIntraSocketEib,   ///< all ranks in one Cell socket (CML over EIB)
  kMeasuredEarly,    ///< Cell runs on the early software stack (Fig. 13 "Measured")
  kBestPcie,         ///< peak-PCIe projection (Fig. 13 "best")
  kOpteronMpi,       ///< non-accelerated runs (MPI over InfiniBand)
  kSharedMemory,     ///< ranks within one conventional multicore socket
};

/// Exposed (non-overlapped) communication time per wavefront step for the
/// two downstream boundary surfaces of `surface_bytes_x/y` bytes each.
Duration comm_per_step(CommMode mode, DataSize surface_x, DataSize surface_y);

// ---------------------------------------------------------------------------
// Iteration-time estimate
// ---------------------------------------------------------------------------

struct SweepWorkload {
  int it = 5, jt = 5, kt = 400;  ///< per-rank subgrid
  int mk = 20;                   ///< K-planes per block; k_blocks = kt/mk
  int angles = 6;                ///< per octant (fixed, Section V.B)
};

struct IterationEstimate {
  int steps = 0;
  Duration block_compute;
  Duration comm_exposed;
  Duration total;
};

IterationEstimate estimate_iteration(const SweepWorkload& w, int px, int py,
                                     const SweepCompute& compute, CommMode mode);

/// Near-square factorization px * py == ranks with px >= py.
std::pair<int, int> choose_grid(int ranks);

// ---------------------------------------------------------------------------
// Paper experiments
// ---------------------------------------------------------------------------

/// Table IV: 50x50x50 per SPE, MK=10, 6 angles, one full socket (8 SPEs).
struct TableIvResult {
  double prev_cbe_s = 0.0;   ///< master/worker implementation on Cell BE
  double ours_cbe_s = 0.0;   ///< SPE-centric implementation on Cell BE
  double ours_pxc_s = 0.0;   ///< SPE-centric on PowerXCell 8i
};
TableIvResult table_iv();

/// Fig. 12: single core (5x5x400) and full socket (weak-scaled) iteration
/// times for the four processors, plus socket performance relative to the
/// PowerXCell 8i socket (cells solved per second).
struct Fig12Row {
  std::string processor;
  double single_core_ms = 0.0;
  double socket_ms = 0.0;
  int socket_ranks = 0;
  double socket_cells_per_s = 0.0;
  double spe_socket_advantage = 0.0;  ///< PXC socket perf / this socket perf
};
std::vector<Fig12Row> figure12_rows();

/// Fig. 13 / 14: iteration time vs node count, 5x5x400 per SPE (a rank
/// per SPE, placed by arch::kSpeCentric) vs the same global problem on
/// the Opterons (a rank per core, arch::kHostOnly, 8x the cells each).
struct ScalePoint {
  int nodes = 0;
  double opteron_s = 0.0;
  double cell_measured_s = 0.0;
  double cell_best_s = 0.0;

  double improvement_measured() const { return opteron_s / cell_measured_s; }
  double improvement_best() const { return opteron_s / cell_best_s; }
};
ScalePoint scale_point(int nodes, const SweepWorkload& w = {});
/// Same point with the SPU-pipeline-derived SPE rate and the Opteron rate
/// supplied by the caller (the sweep engine memoizes them once per batch
/// instead of re-running the pipeline simulator per point).  Bit-identical
/// to scale_point(nodes, w) when handed spe_compute(kPowerXCell8i) and
/// opteron_1800_compute().
ScalePoint scale_point(int nodes, const SweepWorkload& w,
                       const SweepCompute& spe_pxc, const SweepCompute& opteron);
std::vector<ScalePoint> figure13_series(const std::vector<int>& node_counts);
std::vector<int> paper_node_counts();  ///< 1,2,4,...,2048,3060

/// Master/worker dispatch overhead (Table IV "previous" row): the PPE
/// serially feeds pencil-sized work units to the SPE workers.
Duration master_worker_overhead(const SweepWorkload& w, int spes);

}  // namespace rr::model
