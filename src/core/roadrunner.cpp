#include "core/roadrunner.hpp"

#include "arch/calibration.hpp"
#include "util/expect.hpp"

namespace rr::core {

RoadrunnerSystem::RoadrunnerSystem(arch::SystemSpec spec, topo::FatTree topo)
    : spec_(std::move(spec)),
      topo_(std::make_unique<topo::FatTree>(std::move(topo))),
      fabric_(std::make_unique<comm::FabricModel>(*topo_)) {}

RoadrunnerSystem RoadrunnerSystem::full() {
  return RoadrunnerSystem(arch::make_roadrunner(), topo::FatTree::roadrunner());
}

RoadrunnerSystem RoadrunnerSystem::with_cu_count(int cu_count) {
  RR_EXPECTS(cu_count >= 1 && cu_count <= 24);  // the design's limit (II.C)
  arch::SystemSpec spec = arch::make_roadrunner();
  spec.cu_count = cu_count;
  topo::TopologyParams params;
  params.cu_count = cu_count;
  return RoadrunnerSystem(std::move(spec), topo::FatTree::build(params));
}

model::LinpackProjection RoadrunnerSystem::linpack() const {
  return model::project_linpack(spec_, model::derived_linpack_params());
}

arch::PowerReport RoadrunnerSystem::power() const {
  return arch::estimate_power(spec_, linpack().sustained);
}

}  // namespace rr::core
