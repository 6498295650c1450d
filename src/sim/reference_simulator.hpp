// The pre-rebuild DES engine, kept verbatim as a differential-testing
// oracle and performance baseline.
//
// This is the linear-scan calendar queue the tombstone-heap Simulator
// (sim/simulator.hpp) replaced: cancel() pushes the id into a vector that
// is_cancelled() scans on every pop, so cancel-heavy workloads degrade to
// O(events x cancels), and an id cancelled after its event fired stays in
// the list forever.  It is deliberately NOT fixed -- the property tests
// prove the new queue fires bit-identically to this one, and
// bench_des_perf uses it as the speedup denominator.  Do not use it in
// models; use sim::Simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/expect.hpp"
#include "util/units.hpp"

namespace rr::sim {

class ReferenceSimulator {
 public:
  ReferenceSimulator() = default;
  ReferenceSimulator(const ReferenceSimulator&) = delete;
  ReferenceSimulator& operator=(const ReferenceSimulator&) = delete;

  TimePoint now() const { return now_; }

  std::uint64_t schedule(Duration delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  std::uint64_t schedule_at(TimePoint when, std::function<void()> fn) {
    RR_EXPECTS(when >= now_);
    const std::uint64_t id = next_seq_++;
    queue_.push(Event{when, id, std::move(fn)});
    return id;
  }

  void cancel(std::uint64_t id) { cancelled_.push_back(id); }

  bool step() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (is_cancelled(ev.seq)) continue;
      RR_ASSERT(ev.at >= now_);
      now_ = ev.at;
      ++events_run_;
      ev.fn();
      return true;
    }
    return false;
  }

  void run() {
    while (step()) {
    }
  }

  std::uint64_t events_run() const { return events_run_; }
  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;  // FIFO among same-time events
    }
  };

  bool is_cancelled(std::uint64_t id) {
    for (std::size_t i = 0; i < cancelled_.size(); ++i) {
      if (cancelled_[i] == id) {
        cancelled_[i] = cancelled_.back();
        cancelled_.pop_back();
        return true;
      }
    }
    return false;
  }

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_run_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<std::uint64_t> cancelled_;
};

}  // namespace rr::sim
