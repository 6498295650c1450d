#include "obs/prof.hpp"

namespace rr::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// Fixed at load, before anything forks: every campaign worker inherits
/// it, so the whole fleet's wall times share one origin and the
/// coordinator can record worker times as they come.
const Clock::time_point kWallEpoch = Clock::now();

}  // namespace

TimePoint wall_now() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - kWallEpoch)
                      .count();
  return TimePoint::from_ps(ns * 1000);
}

void WallTrace::attach(sim::TraceRecorder* trace, std::string track) {
  std::lock_guard lock(mu_);
  trace_ = trace;
  track_ = std::move(track);
}

void WallTrace::record(const std::string& name, TimePoint t0, TimePoint t1) {
  std::lock_guard lock(mu_);
  if (!trace_) return;
  const auto id = trace_->begin(name, track_, t0);
  trace_->end(id, t1 < t0 ? t0 : t1);
}

WallTrace& WallTrace::global() {
  static WallTrace sink;
  return sink;
}

ProfSpan::ProfSpan(std::string name, Histogram* hist, WallTrace* sink)
    : name_(std::move(name)), hist_(hist), sink_(sink), start_(wall_now()) {}

ProfSpan::~ProfSpan() { stop(); }

double ProfSpan::stop() {
  if (!stopped_) {
    stopped_ = true;
    end_ = wall_now();
    const double us = (end_ - start_).us();
    if (hist_) hist_->observe(us);
    if (sink_) sink_->record(name_, start_, end_);
  }
  return (end_ - start_).us();
}

double ProfSpan::elapsed_us() const {
  return ((stopped_ ? end_ : wall_now()) - start_).us();
}

}  // namespace rr::obs
