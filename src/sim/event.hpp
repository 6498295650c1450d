// One-shot completion event (latch) for coroutine tasks: any number of
// waiters suspend until set() fires; waits after set() complete
// immediately.  Used for asynchronous-operation handles (e.g. DaCS wait
// identifiers).
#pragma once

#include <coroutine>
#include <vector>

#include "sim/simulator.hpp"

namespace rr::sim {

class Event {
 public:
  explicit Event(Simulator& sim) : sim_(&sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool is_set() const { return set_; }

  /// Fire the event; wakes all waiters via zero-delay resumptions.
  void set() {
    if (set_) return;
    set_ = true;
    for (const std::coroutine_handle<> h : waiters_)
      sim_->schedule_resume(Duration::zero(), h);
    waiters_.clear();
  }

  /// Awaitable wait.
  auto wait() {
    struct Awaiter {
      Event* ev;
      bool await_ready() const { return ev->set_; }
      void await_suspend(std::coroutine_handle<> h) { ev->waiters_.push_back(h); }
      void await_resume() {}
    };
    return Awaiter{this};
  }

 private:
  Simulator* sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace rr::sim
