#include "obs/export.hpp"

#include "sim/simulator.hpp"

namespace rr::obs {

namespace {

Json histogram_json(const MetricSnapshot& m) {
  Json o = Json::object();
  o.set("type", "histogram").set("count", m.count).set("sum", m.sum);
  Json bounds = Json::array();
  for (const double b : m.bounds) bounds.push_back(b);
  Json buckets = Json::array();
  for (const std::uint64_t c : m.buckets) buckets.push_back(c);
  o.set("bounds", std::move(bounds)).set("buckets", std::move(buckets));
  if (m.count > 0) {
    o.set("mean", m.sum / static_cast<double>(m.count))
        .set("p50", histogram_percentile(m, 50.0))
        .set("p90", histogram_percentile(m, 90.0))
        .set("p99", histogram_percentile(m, 99.0));
  }
  return o;
}

}  // namespace

Json to_json(const Snapshot& s) {
  Json out = Json::object();
  for (const auto& m : s.metrics) {
    switch (m.kind) {
      case MetricKind::kCounter: {
        Json o = Json::object();
        o.set("type", "counter").set("value", m.ivalue);
        out.set(m.name, std::move(o));
        break;
      }
      case MetricKind::kGauge: {
        Json o = Json::object();
        o.set("type", "gauge").set("value", m.value);
        out.set(m.name, std::move(o));
        break;
      }
      case MetricKind::kHistogram:
        out.set(m.name, histogram_json(m));
        break;
    }
  }
  return out;
}

void export_counters(const Snapshot& s, sim::TraceRecorder& trace,
                     TimePoint at, const std::string& track) {
  for (const auto& m : s.metrics) {
    switch (m.kind) {
      case MetricKind::kCounter:
        trace.counter(m.name, track, at, static_cast<double>(m.ivalue));
        break;
      case MetricKind::kGauge:
        trace.counter(m.name, track, at, m.value);
        break;
      case MetricKind::kHistogram:
        trace.counter(m.name + ".count", track, at,
                      static_cast<double>(m.count));
        break;
    }
  }
}

void snapshot_simulator(const sim::Simulator& sim, MetricsRegistry& reg,
                        const std::string& prefix, double wall_seconds) {
  reg.gauge(prefix + ".events_run")
      .set(static_cast<double>(sim.events_run()));
  reg.gauge(prefix + ".cancelled_run")
      .set(static_cast<double>(sim.cancelled_run()));
  reg.gauge(prefix + ".scheduled_total")
      .set(static_cast<double>(sim.scheduled_total()));
  reg.gauge(prefix + ".tombstones").set(static_cast<double>(sim.tombstones()));
  reg.gauge(prefix + ".pending").set(static_cast<double>(sim.pending()));
  reg.gauge(prefix + ".max_pending")
      .set(static_cast<double>(sim.max_pending()));
  reg.gauge(prefix + ".pool_capacity")
      .set(static_cast<double>(sim.pool_capacity()));
  if (wall_seconds > 0.0)
    reg.gauge(prefix + ".events_per_sec")
        .set(static_cast<double>(sim.events_run()) / wall_seconds);
}

}  // namespace rr::obs
