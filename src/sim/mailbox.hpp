// Simulated-time mailboxes (unbounded FIFO channels) for coroutine tasks.
//
// A Mailbox<T> decouples senders and receivers inside one Simulator.
// send() is non-blocking; receive() returns an awaitable that suspends the
// receiving task until a message is available.  Delivery is FIFO on both
// sides: messages in arrival order, waiting receivers in wait order.  A
// message destined for a waiting receiver is handed to it directly, so no
// later receiver can overtake it.
//
// An idle mailbox owns no heap memory: waiting receivers are threaded
// through their awaiters (sim/waiters.hpp), and queued messages live in a
// ring that is allocated when the first message has to wait.
#pragma once

#include <coroutine>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/waiters.hpp"
#include "util/expect.hpp"

namespace rr::sim {

/// T must be default-constructible and movable (the ring's empty slots).
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulator& sim) : sim_(&sim) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deposit a message.  If a receiver is waiting, the message is assigned
  /// to the oldest one and its resumption is scheduled as a zero-delay
  /// event (so wakeups interleave deterministically with other events).
  void send(T msg) {
    if (!waiters_.empty()) {
      auto& w = static_cast<Awaiter&>(waiters_.pop_front());
      w.slot = std::move(msg);
      sim_->schedule_resume(Duration::zero(), w.handle);
      return;
    }
    push(std::move(msg));
  }

  /// Awaitable blocking receive.
  auto receive() { return Awaiter{this}; }

  /// Non-blocking receive (only sees queued messages, never steals from a
  /// waiting receiver because assigned messages bypass the queue).
  std::optional<T> try_receive() {
    if (count_ == 0) return std::nullopt;
    return pop();
  }

  std::size_t size() const { return count_; }
  bool has_waiters() const { return !waiters_.empty(); }

 private:
  struct Awaiter : Waiter {
    Mailbox* box;
    std::optional<T> slot;

    explicit Awaiter(Mailbox* b) : box(b) {}
    Awaiter(Awaiter&&) = delete;
    Awaiter& operator=(Awaiter&&) = delete;
    // If a blocked task is destroyed (e.g. a deadlocked program being torn
    // down), deregister so the mailbox never resumes a dead coroutine.
    ~Awaiter() { box->waiters_.unlink(*this); }

    bool await_ready() {
      // Only take from the queue if no earlier receiver is still waiting
      // (preserves FIFO fairness among receivers).
      if (!box->waiters_.empty() || box->count_ == 0) return false;
      slot = box->pop();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) { box->waiters_.push_back(*this, h); }
    T await_resume() {
      RR_ASSERT(slot.has_value());
      return std::move(*slot);
    }
  };

  void push(T msg) {
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) & (ring_.size() - 1)] = std::move(msg);
    ++count_;
  }

  T pop() {
    RR_ASSERT(count_ > 0);
    T v = std::move(ring_[head_]);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    return v;
  }

  /// Double the ring (a power of two, so slots wrap with a mask), moving
  /// the queued messages to its front in order.
  void grow() {
    std::vector<T> bigger(ring_.empty() ? 4 : 2 * ring_.size());
    for (std::size_t i = 0; i < count_; ++i)
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    ring_ = std::move(bigger);
    head_ = 0;
  }

  Simulator* sim_;
  WaiterQueue waiters_;
  std::vector<T> ring_;  ///< queued messages at head_ .. head_ + count_ (mod size)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace rr::sim
