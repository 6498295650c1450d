// The Roadrunner I/O subsystem (Section II.B): each CU carries 12 I/O
// nodes attached to a Panasas parallel file system (4 on the shared lower
// crossbar, 8 on the last one).  The paper does not evaluate I/O, so this
// module is an *extension*: a capacity/bandwidth model for the parallel
// file system plus the derived checkpoint/restart times that a machine of
// this size lives and dies by.
#pragma once

#include "arch/spec.hpp"
#include "util/units.hpp"

namespace rr::io {

struct PanasasParams {
  /// Sustained bandwidth one I/O node moves to/from the file system
  /// (Panasas shelf-class hardware of the era).
  Bandwidth per_io_node = Bandwidth::mb_per_sec(350);
  /// Per-file metadata operation cost (create/open against the director).
  Duration metadata_op = Duration::milliseconds(1.2);
  /// Fraction of a compute node's IB link usable for I/O traffic while
  /// the application is quiesced for a checkpoint.
  double ib_share = 0.9;
};

class IoSubsystem {
 public:
  IoSubsystem(const arch::SystemSpec& system, PanasasParams params = {});

  int io_node_count() const;                 ///< 12 per CU
  Bandwidth aggregate_bandwidth() const;     ///< all I/O nodes combined
  Bandwidth per_cu_bandwidth() const;

  /// Time to write `bytes_per_node` from every compute node at once
  /// (N-to-M collective write): limited by the narrower of the compute
  /// side (per-node IB share) and the file-system side (aggregate).
  Duration collective_write(DataSize bytes_per_node) const;

  /// Full-memory checkpoint: all node memory (Opteron + Cell blades).
  Duration full_checkpoint() const;
  DataSize checkpoint_bytes() const;

  /// The C of a Young/Daly defensive checkpoint: collective write of
  /// `per_node` bytes of application state plus the file-per-node
  /// metadata round.  Shared by bench_io_checkpoint and the fault
  /// subsystem (src/fault) so both price checkpoints identically.
  Duration checkpoint_cost(DataSize per_node) const;

  /// Fraction of wall-clock a fault-free run spends writing `per_node`
  /// bytes of state every `interval`.
  double checkpoint_overhead(DataSize per_node, Duration interval) const;

  /// One-file-per-rank metadata storm cost for `ranks` files, spread
  /// across the I/O nodes' directors.
  Duration metadata_storm(int ranks) const;

  /// Time for every rank to read a shared input deck of `bytes` (one
  /// read, then broadcast over the fabric is assumed -- Sweep3D's input
  /// pattern via the Opteron RPC).
  Duration shared_input_read(DataSize bytes) const;

  const PanasasParams& params() const { return params_; }

 private:
  arch::SystemSpec system_;  // by value: the subsystem outlives any caller temporary
  PanasasParams params_;
};

}  // namespace rr::io
