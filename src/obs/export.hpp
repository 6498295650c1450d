// Exporters for obs::Snapshot (DESIGN.md §10): one snapshot, two
// formats, both deterministic for a given snapshot.
//
//   * JSON   -- machine-readable object keyed by metric name, with p50/
//               p90/p99 estimates precomputed for histograms; the block
//               every run report embeds;
//   * Chrome counter events -- counters and gauges emitted as "C" events
//               into a sim::TraceRecorder wall track, so metric values
//               appear on the same Perfetto timeline as the spans.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace rr::sim {
class Simulator;
}

namespace rr::obs {

/// JSON snapshot: {"name": {"type":"counter","value":N}, ...}.
Json to_json(const Snapshot& s);

/// Emit every counter and gauge (and each histogram's count) as Chrome
/// counter events at wall time `at` on `track`.
void export_counters(const Snapshot& s, sim::TraceRecorder& trace,
                     TimePoint at, const std::string& track = "wall/metrics");

/// Publish a Simulator's queue statistics as gauges under `prefix`
/// (events_run, scheduled_total, pending, max_pending, pool_capacity),
/// plus events_per_sec when `wall_seconds > 0`.
void snapshot_simulator(const sim::Simulator& sim, MetricsRegistry& reg,
                        const std::string& prefix, double wall_seconds = 0.0);

}  // namespace rr::obs
