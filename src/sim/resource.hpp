// Awaitable counted resource (FIFO semaphore) for modeling shared hardware:
// links, DMA engines, switch ports.  Tasks acquire a token, hold it for a
// simulated duration (the transfer time), and release it; contention then
// emerges naturally from queueing.
#pragma once

#include <coroutine>

#include "sim/simulator.hpp"
#include "sim/waiters.hpp"
#include "util/expect.hpp"

namespace rr::sim {

class Resource {
 public:
  Resource(Simulator& sim, std::size_t capacity)
      : sim_(&sim), capacity_(capacity), available_(capacity) {
    RR_EXPECTS(capacity > 0);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  struct Awaiter : Waiter {
    Resource* res;

    explicit Awaiter(Resource* r) : res(r) {}
    Awaiter(Awaiter&&) = delete;
    Awaiter& operator=(Awaiter&&) = delete;
    // Deregister if a blocked task is destroyed while queued.
    ~Awaiter() { res->waiters_.unlink(*this); }

    bool await_ready() {
      if (res->waiters_.empty() && res->available_ > 0) {
        --res->available_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { res->waiters_.push_back(*this, h); }
    void await_resume() {}
  };

  /// Awaitable acquire of one token (FIFO among waiters).
  auto acquire() { return Awaiter{this}; }

  /// Return one token; wakes the oldest waiter if any.  Returning more
  /// tokens than are held is a contract violation: a second release of a
  /// one-holder link would otherwise let two transfers hold it at once.
  void release() {
    RR_EXPECTS(available_ < capacity_);
    if (!waiters_.empty()) {
      // Token passes directly to the waiter; available_ stays unchanged.
      sim_->schedule_resume(Duration::zero(), waiters_.pop_front().handle);
      return;
    }
    ++available_;
  }

  std::size_t available() const { return available_; }
  std::size_t queue_length() const { return waiters_.size(); }

 private:
  Simulator* sim_;
  std::size_t capacity_;
  std::size_t available_;
  WaiterQueue waiters_;
};

}  // namespace rr::sim
