// Machine description: processors, blades, triblade nodes, Compute Units,
// and the full Roadrunner system.  All Table II / Fig. 3 quantities are
// *derived* from per-component specs, never hard-coded.
#pragma once

#include <string>
#include <vector>

#include "util/units.hpp"

namespace rr::arch {

/// Floating-point precision selector used across the performance roll-ups.
enum class Precision { kDouble, kSingle };

/// Cache / scratchpad sizes for one core.  `local_store` is nonzero only
/// for SPEs, which have no cache hierarchy (Section II.A).
struct CoreMemory {
  DataSize l1d;
  DataSize l1i;
  DataSize l2;
  DataSize local_store;

  DataSize on_chip_total() const { return l1d + l1i + l2 + local_store; }
  bool operator==(const CoreMemory&) const = default;
};

/// A homogeneous group of cores within one processor (e.g. "8 SPEs").
struct CoreGroup {
  std::string name;
  int count = 0;
  Frequency clock;
  double dp_flops_per_cycle = 0.0;  // per core
  double sp_flops_per_cycle = 0.0;  // per core
  CoreMemory memory;

  FlopRate peak(Precision p) const {
    const double per_cycle = p == Precision::kDouble ? dp_flops_per_cycle : sp_flops_per_cycle;
    return FlopRate::flops(per_cycle * clock.in_hz() * count);
  }
  DataSize on_chip_total() const { return memory.on_chip_total() * count; }
  bool operator==(const CoreGroup&) const = default;
};

/// A processor socket: one or more core groups plus its memory system.
struct ProcessorSpec {
  std::string name;
  std::vector<CoreGroup> core_groups;
  DataSize attached_memory;  // off-chip DRAM owned by this socket
  Bandwidth memory_bandwidth;

  FlopRate peak(Precision p) const;
  DataSize on_chip_total() const;
  int core_count() const;
  bool operator==(const ProcessorSpec&) const = default;
};

/// Which implementation of the Cell Broadband Engine Architecture.
enum class CellVariant { kCellBe, kPowerXCell8i };

/// Factory functions for the processors in the paper.
ProcessorSpec make_opteron_2210();                  // dual-core 1.8 GHz
ProcessorSpec make_cell(CellVariant variant);       // PPE + 8 SPEs
ProcessorSpec make_opteron_quad_2000();             // Fig. 12 comparison point
ProcessorSpec make_tigerton_quad_2930();            // Fig. 12 comparison point

/// A blade: one or more processor sockets.
struct BladeSpec {
  std::string name;
  std::vector<ProcessorSpec> sockets;

  FlopRate peak(Precision p) const;
  DataSize total_memory() const;
  DataSize on_chip_total() const;
  bool operator==(const BladeSpec&) const = default;
};

BladeSpec make_ls21();                       // 2x Opteron 2210
BladeSpec make_qs22(CellVariant variant);    // 2x PowerXCell 8i (or Cell BE)

/// A Roadrunner compute node: one LS21 + two QS22 (Section II.A).
struct TribladeSpec {
  BladeSpec opteron_blade;
  std::vector<BladeSpec> cell_blades;

  FlopRate peak(Precision p) const;
  FlopRate opteron_peak(Precision p) const;
  FlopRate cell_peak(Precision p) const;
  FlopRate spe_peak(Precision p) const;   // SPEs only (Fig. 3 wedge)
  FlopRate ppe_peak(Precision p) const;   // PPEs only (Fig. 3 wedge)
  DataSize opteron_memory() const;
  DataSize cell_memory() const;
  DataSize opteron_on_chip() const;
  DataSize cell_on_chip() const;
  int opteron_cores() const;
  int cell_processors() const;
  int spe_count() const;
  bool operator==(const TribladeSpec&) const = default;
};

TribladeSpec make_triblade(CellVariant variant = CellVariant::kPowerXCell8i);

/// The full system (Section II.B-D).
struct SystemSpec {
  TribladeSpec node;
  int cu_count = 0;
  int nodes_per_cu = 0;
  int io_nodes_per_cu = 0;

  int node_count() const { return cu_count * nodes_per_cu; }
  int spe_count() const { return node_count() * node.spe_count(); }
  FlopRate cu_peak(Precision p) const;
  FlopRate system_peak(Precision p) const;
  /// Fraction of system peak contributed by the Cell processors (~0.95).
  double cell_peak_fraction(Precision p) const;
  /// Memberwise: two specs are equal when every field of every part is.
  bool operator==(const SystemSpec&) const = default;
};

SystemSpec make_roadrunner();

}  // namespace rr::arch
