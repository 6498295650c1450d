// The pre-rebuild DES engine, kept as a differential-testing oracle and
// performance baseline.
//
// This is the std::priority_queue the pooled, laned Simulator
// (sim/simulator.hpp) replaced.  Its linear-scan cancel list went when
// the last canceller left the DES; the rest is deliberately NOT fixed
// (it still moves events out of top() through a const_cast) -- the
// property tests prove the new queue fires bit-identically to this one,
// and bench_des_perf uses it as the speedup denominator.  Do not use it
// in models; use sim::Simulator.
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

  void schedule(Duration delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  void schedule_at(TimePoint when, std::function<void()> fn) {
    RR_EXPECTS(when >= now_);
    queue_.push(Event{when, next_seq_++, std::move(fn)});
  }

  bool step() {
    if (queue_.empty()) return false;
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    RR_ASSERT(ev.at >= now_);
    now_ = ev.at;
    ++events_run_;
    ev.fn();
    return true;
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

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_run_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace rr::sim
