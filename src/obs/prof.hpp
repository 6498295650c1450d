// Wall-clock profiling spans (DESIGN.md §10).
//
// A ProfSpan measures real elapsed time (steady_clock) across a scope
// and publishes it two ways:
//   * into an obs::Histogram, so the latency distribution lands in the
//     metrics snapshot / run report;
//   * into the process WallTrace sink, which forwards completed spans to
//     a sim::TraceRecorder on a dedicated wall-time track -- the same
//     Chrome-trace file can then show simulated spans and real profiling
//     spans side by side in Perfetto.
//
// Wall time is mapped onto the recorder's picosecond timeline as
// nanoseconds-since-profiling-epoch * 1000, where the epoch is fixed when
// the program loads, so forked children share their parent's; wall
// tracks are prefixed "wall/" so they are visually distinct from
// simulated tracks.
//
// TraceRecorder itself is single-threaded; WallTrace serializes span
// delivery behind a mutex, so ProfSpans may finish on any thread as long
// as nothing else writes the recorder concurrently (record sim-time
// spans before or after the profiled parallel phase, not during).
#pragma once

#include <chrono>
#include <string>

#include "obs/metrics.hpp"
#include "sim/trace.hpp"
#include "util/units.hpp"

namespace rr::obs {

/// Wall-clock time since the process profiling epoch, as a TimePoint on
/// the trace recorder's picosecond axis.
TimePoint wall_now();

/// Thread-safe funnel from ProfSpans to one TraceRecorder wall track.
class WallTrace {
 public:
  /// Attach (or detach with nullptr).  The recorder must outlive the
  /// attachment; the track name should keep the "wall/" prefix.
  void attach(sim::TraceRecorder* trace, std::string track = "wall/prof");

  /// Record one completed span [t0, t1] on the wall track.
  void record(const std::string& name, TimePoint t0, TimePoint t1);

  static WallTrace& global();

 private:
  mutable std::mutex mu_;
  sim::TraceRecorder* trace_ = nullptr;
  std::string track_;
};

/// Scoped wall-clock timer.  On destruction (or stop()) the elapsed time
/// is observed into `hist` (microseconds) if given, and forwarded to
/// `sink` (default: the process WallTrace) if attached.
class ProfSpan {
 public:
  explicit ProfSpan(std::string name, Histogram* hist = nullptr,
                    WallTrace* sink = &WallTrace::global());
  ~ProfSpan();

  ProfSpan(const ProfSpan&) = delete;
  ProfSpan& operator=(const ProfSpan&) = delete;

  /// Close the span early (idempotent); returns elapsed microseconds.
  double stop();
  /// Elapsed so far (or final, once stopped), in microseconds.
  double elapsed_us() const;

 private:
  std::string name_;
  Histogram* hist_;
  WallTrace* sink_;
  TimePoint start_;
  TimePoint end_{};
  bool stopped_ = false;
};

}  // namespace rr::obs
