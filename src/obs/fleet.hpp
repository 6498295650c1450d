// Cross-process metric aggregation (DESIGN.md §15): exact wire
// serialization for obs::Snapshot plus the merge algebra that turns N
// worker snapshots into one fleet snapshot.
//
// The wire form is compact JSON through util/json, whose %.17g numbers
// round-trip every finite double bit-exactly; counters and bucket counts
// are exact below 2^53 (the registry-wide contract), so
// snapshot_from_wire(snapshot_to_wire(s)) == s field for field, and the
// metrics a campaign worker ships on its `progress`/`done` frames lose
// nothing in transit.
//
// Merge semantics (merge_into):
//   * counters   -- sum (exact uint64),
//   * gauges     -- sum (fleet total; per-part values stay visible in
//                   the labeled parts),
//   * histograms -- bucket-wise count addition plus count/sum addition;
//                   bounds must match exactly (one bucket ladder per
//                   metric name is the registry contract), so merged
//                   percentiles are identical to a single registry that
//                   observed every sample.
// A kind or bounds mismatch throws std::runtime_error -- the campaign
// coordinator drops that incarnation's snapshot with a warning.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace rr::obs {

/// {"snapshot":"rr-metrics","version":1,"metrics":[...]} -- the exact,
/// self-identifying wire form whose compact dump a campaign worker ships,
/// as text, in the `metrics` field of its `progress`/`done` frames.
Json snapshot_to_wire(const Snapshot& s);

/// Parse and validate a wire snapshot.  Throws std::runtime_error on a
/// malformed document (wrong magic/version, unknown kind, bucket count
/// not bounds+1, non-monotone bounds) -- hostile input is rejected
/// before it can reach the merge.
Snapshot snapshot_from_wire(const Json& j);

/// Merge `src` into `dst` under the algebra above; the result is
/// name-sorted and covers the union of both metric sets.
void merge_into(Snapshot& dst, const Snapshot& src);

/// A fleet-wide snapshot: the merged totals plus each labeled part
/// (campaign: "coord" plus one shard index label per worker shard, with
/// respawned incarnations of a shard folded into the same label).
struct FleetSnapshot {
  Snapshot merged;
  std::vector<std::pair<std::string, Snapshot>> parts;

  bool empty() const { return parts.empty(); }

  /// Add (or fold into an existing) labeled part and merge it into
  /// `merged`.
  void add_part(const std::string& label, const Snapshot& part);

  const Snapshot* part(std::string_view label) const;

  /// {"<label>": <wire snapshot>, ...} in insertion order -- the
  /// "extra.fleet" block of a campaign report.
  Json parts_to_json() const;
};

}  // namespace rr::obs
