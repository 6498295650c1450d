#include "sweep_engine/result_store.hpp"

namespace rr::engine {

Json to_json(const fault::ResiliencePoint& pt) {
  Json o = Json::object();
  o.set("scenario", "resilience_point")
      .set("nodes", pt.nodes)
      .set("fault_free_s", pt.fault_free_s)
      .set("system_mtbf_h", pt.system_mtbf_h)
      .set("checkpoint_s", pt.checkpoint_s)
      .set("interval_s", pt.interval_s)
      .set("analytic_s", pt.analytic_s)
      .set("simulated_s", pt.simulated_s)
      .set("mean_failures", pt.mean_failures)
      .set("overhead_analytic", pt.overhead_analytic)
      .set("overhead_simulated", pt.overhead_simulated)
      .set("efficiency", pt.efficiency);
  return o;
}

Json to_json(const model::ScalePoint& pt) {
  Json o = Json::object();
  o.set("scenario", "sweep3d_scale_point")
      .set("nodes", pt.nodes)
      .set("opteron_s", pt.opteron_s)
      .set("cell_measured_s", pt.cell_measured_s)
      .set("cell_best_s", pt.cell_best_s);
  return o;
}

fault::ResiliencePoint resilience_point_from_json(const Json& j) {
  fault::ResiliencePoint pt;
  pt.nodes = j.at("nodes").as_int32();
  pt.fault_free_s = j.at("fault_free_s").as_double();
  pt.system_mtbf_h = j.at("system_mtbf_h").as_double();
  pt.checkpoint_s = j.at("checkpoint_s").as_double();
  pt.interval_s = j.at("interval_s").as_double();
  pt.analytic_s = j.at("analytic_s").as_double();
  pt.simulated_s = j.at("simulated_s").as_double();
  pt.mean_failures = j.at("mean_failures").as_double();
  pt.overhead_analytic = j.at("overhead_analytic").as_double();
  pt.overhead_simulated = j.at("overhead_simulated").as_double();
  pt.efficiency = j.at("efficiency").as_double();
  return pt;
}

}  // namespace rr::engine
