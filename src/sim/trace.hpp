// Span tracing for simulations: records named spans on named tracks and
// exports Chrome trace-event JSON (load it at chrome://tracing or in
// Perfetto) so a CML/Sweep3D run can be inspected visually.  Tracks may
// be grouped into named process rows, and flows link two tracks: one
// recorder holds a whole campaign fleet's trace.
//
// Usage:
//   sim::TraceRecorder trace;
//   auto span = trace.begin("dacs xfer", "node0/cell2", sim.now());
//   ... later ...
//   trace.end(span, sim.now());
//   trace.write_json(os);
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace rr::sim {

class TraceRecorder {
 public:
  using SpanId = std::size_t;

  /// Open a span at simulated time `start` on `track`.
  SpanId begin(std::string name, std::string track, TimePoint start);

  /// Close a span.  Spans may close out of order.
  void end(SpanId id, TimePoint finish);

  /// Record an instantaneous event.
  void instant(std::string name, std::string track, TimePoint at);

  /// Record a counter sample (Chrome "C" event): the value of a named
  /// metric at simulated time `at`.  Used by the Simulator to expose
  /// queue-depth / tombstone / cancelled-run statistics over time.
  void counter(std::string name, std::string track, TimePoint at, double value);

  /// Record a message that left `from_track` at `t0` and arrived on
  /// `to_track` at `t1` (t1 >= t0): a Chrome flow ("s"/"f" events,
  /// category "frame") under an id this recorder assigns, drawn as an
  /// arrow between the tracks -- how a campaign steal request is
  /// followed from the coordinator to its victim.
  void flow(std::string name, std::string from_track, TimePoint t0,
            std::string to_track, TimePoint t1);

  /// Put `track` on the named process row `row` ("coord", "shard0", ...).
  /// write_json gives each named row its own pid and process_name record;
  /// a recorder that names no row writes every track on pid 1.
  void set_row(const std::string& track, const std::string& row);

  /// Number of recorded spans + instants + counter samples + flow ends.
  std::size_t size() const { return events_.size(); }
  /// Number of counter samples recorded (subset of size()).
  std::size_t counter_samples() const;
  /// Last recorded value of counter `name` on `track`, or NaN if none.
  double last_counter(std::string_view name, std::string_view track) const;
  /// Number of spans still open.
  std::size_t open_spans() const;

  /// Chrome trace-event JSON ("traceEvents" array form).  Times and
  /// durations are exact decimal microseconds of the picosecond axis
  /// (whole microseconds print as integers); counter values round-trip.
  void write_json(std::ostream& os) const;

  /// A closed span, as take_spans() hands it out.
  struct Span {
    std::string name;
    TimePoint start;
    TimePoint end;
  };
  /// Return the closed spans, in record order, and empty the recorder
  /// (row names stay).  Requires no open span.  How a forked campaign
  /// worker hands its wall spans to the coordinator's recorder.
  std::vector<Span> take_spans();

 private:
  enum class Kind : std::uint8_t {
    kSpan,
    kInstant,
    kCounter,
    kFlowBegin,
    kFlowEnd,
  };
  struct Event {
    std::string name;
    std::string track;
    std::int64_t start_ps = 0;
    std::int64_t end_ps = -1;  ///< -1: still open; start==end: instant
    Kind kind = Kind::kSpan;
    double value = 0.0;        ///< counter samples only
    std::uint64_t flow_id = 0; ///< flow endpoints only
  };
  std::vector<Event> events_;
  std::uint64_t flows_ = 0;
  std::vector<std::string> rows_;                  ///< pid k+1 is rows_[k]
  std::map<std::string, std::size_t> track_rows_;  ///< track -> rows_ index
};

}  // namespace rr::sim
