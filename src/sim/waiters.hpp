// Intrusive FIFO of suspended coroutines, the wait queue of the DES's
// blocking primitive (Resource).  A waiter is the awaiter object itself,
// which lives in the suspended coroutine's frame for as long as it waits,
// so queueing allocates nothing and an idle primitive owns no heap memory.
#pragma once

#include <coroutine>
#include <cstddef>

#include "util/expect.hpp"

namespace rr::sim {

/// Base of an awaiter that can wait in a WaiterQueue.
struct Waiter {
  std::coroutine_handle<> handle;
  Waiter* prev = nullptr;
  Waiter* next = nullptr;
  bool queued = false;
};

class WaiterQueue {
 public:
  WaiterQueue() = default;
  WaiterQueue(const WaiterQueue&) = delete;
  WaiterQueue& operator=(const WaiterQueue&) = delete;

  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }

  /// Queue `w` (suspended as `h`) behind every current waiter.
  void push_back(Waiter& w, std::coroutine_handle<> h) {
    RR_EXPECTS(!w.queued);
    w.handle = h;
    w.prev = tail_;
    w.next = nullptr;
    w.queued = true;
    (tail_ ? tail_->next : head_) = &w;
    tail_ = &w;
    ++size_;
  }

  /// Dequeue the oldest waiter (the queue must not be empty).
  Waiter& pop_front() {
    RR_EXPECTS(head_ != nullptr);
    Waiter& w = *head_;
    unlink(w);
    return w;
  }

  /// Remove `w` wherever it stands; a no-op if it is not queued.  Awaiter
  /// destructors call this so a coroutine destroyed while it waits (a
  /// deadlocked program torn down) is never resumed.
  void unlink(Waiter& w) {
    if (!w.queued) return;
    (w.prev ? w.prev->next : head_) = w.next;
    (w.next ? w.next->prev : tail_) = w.prev;
    w.prev = w.next = nullptr;
    w.queued = false;
    --size_;
  }

 private:
  Waiter* head_ = nullptr;
  Waiter* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace rr::sim
