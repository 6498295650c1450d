// Public façade: one object that assembles the modeled Roadrunner --
// machine description (arch), explicit interconnect (topo), calibrated
// communication models (comm) -- and answers the questions the paper's
// evaluation asks of the real machine.
//
// Typical use (see examples/quickstart.cpp):
//
//   auto rr = rr::core::RoadrunnerSystem::full();
//   rr.spec().system_peak(rr::arch::Precision::kDouble);   // 1.376 Pflop/s
//   rr.hop_count({0}, {3059});                             // 7
//   rr.mpi_latency({0}, {1});                              // ~2.5 us
//
#pragma once

#include <memory>

#include "arch/power.hpp"
#include "arch/spec.hpp"
#include "comm/fabric.hpp"
#include "model/linpack.hpp"
#include "topo/fat_tree.hpp"

namespace rr::core {

class RoadrunnerSystem {
 public:
  /// The full 17-CU, 3,060-node machine.
  static RoadrunnerSystem full();
  /// A reduced machine with `cu_count` CUs (the paper's design scales to
  /// 24; useful for what-if studies and cheap tests).
  static RoadrunnerSystem with_cu_count(int cu_count);

  const arch::SystemSpec& spec() const { return spec_; }
  const topo::Topology& topology() const { return *topo_; }
  const comm::FabricModel& fabric() const { return *fabric_; }

  int node_count() const { return topo_->node_count(); }
  int spe_count() const { return spec_.node.spe_count() * node_count(); }

  /// Crossbar hops between two compute nodes (Table I metric).
  int hop_count(topo::NodeId a, topo::NodeId b) const {
    return topo_->hop_count(a, b);
  }

  /// Zero-byte MPI latency between two nodes (Fig. 10 metric).
  Duration mpi_latency(topo::NodeId a, topo::NodeId b) const {
    return fabric_->zero_byte_latency(a, b);
  }

  /// Peak and projected-LINPACK summary.
  FlopRate peak_dp() const { return spec_.system_peak(arch::Precision::kDouble); }
  model::LinpackProjection linpack() const;
  arch::PowerReport power() const;

 private:
  RoadrunnerSystem(arch::SystemSpec spec, topo::FatTree topo);

  arch::SystemSpec spec_;
  std::unique_ptr<topo::FatTree> topo_;
  std::unique_ptr<comm::FabricModel> fabric_;
};

}  // namespace rr::core
