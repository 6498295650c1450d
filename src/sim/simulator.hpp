// Discrete-event simulation engine.
//
// Events are (time, sequence, callback) triples ordered by time then by
// insertion sequence, so same-time events fire in a deterministic FIFO
// order.  Simulated time is integer picoseconds (rr::TimePoint), which
// makes runs bit-reproducible.
//
// Pending events wait in one of two queues over a generational event pool:
//   * events due after now() wait in an indexed binary min-heap of 24-byte
//     (time, seq, slot) PODs -- the sort key is inline, so sift-up/down is
//     branch-light sequential memory traffic and never moves a
//     std::function; only the pool slot owns the callback;
//   * events due at now() -- schedule(0, ...), and the zero-delay
//     schedule_resume() calls with which Mailbox::send, Resource::release
//     and Event::set wake their waiters -- skip the heap and join a FIFO
//     ring of slots, the ready queue.  step() fires heap entries due at
//     now() before the ready queue: each was queued before the clock
//     reached now(), so its seq is below that of every ready entry, and
//     the (time, seq) firing order is exactly what one heap would give;
//   * a slot holds either a callback or a coroutine handle: coroutine
//     wake-ups (sim/task.hpp, mailboxes, resources) store the handle and
//     step() resumes it directly, with no std::function built or called.
//     Both kinds share one queue discipline, so firing order is the
//     order of scheduling whichever kind each event is;
//   * slots are recycled through a free list, so steady-state
//     schedule/fire cycles allocate nothing (small callbacks live in the
//     std::function SBO of a reused slot);
//   * cancel() is O(1): the event id encodes (generation, slot), a stale
//     generation means the event already fired (or never existed) and the
//     cancel is a true no-op.  A live cancel marks the slot a tombstone
//     and drops the callback immediately; tombstones are swept lazily off
//     the heap top and the ready front, with a bulk compaction of both
//     queues once they outnumber live events, so cancel-heavy workloads
//     stay O(log n) per event with flat memory.
//
// Two programming styles are supported:
//   * callback style: sim.schedule(delay, fn)
//   * coroutine style (sim/task.hpp): co_await Delay{sim, d}, mailboxes, ...
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/trace.hpp"
#include "util/expect.hpp"
#include "util/units.hpp"

namespace rr::sim {

/// Human-readable engine identifier.
const char* engine_name();

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  TimePoint now() const { return now_; }

  /// Schedule `fn` to run `delay` after now.  Returns an event id usable
  /// with cancel().
  std::uint64_t schedule(Duration delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `when` (must not be in the past).
  /// An event due now joins the ready queue behind every other event due
  /// now.
  std::uint64_t schedule_at(TimePoint when, std::function<void()> fn) {
    RR_EXPECTS(when >= now_);
    const std::uint32_t si = acquire_slot();
    pool_[si].fn = std::move(fn);
    return enqueue(when, si);
  }

  /// Resume coroutine `h` `delay` after now.  The event is an ordinary
  /// one (same ids, cancel(), counters and FIFO among same-time events as
  /// schedule()), but firing it resumes `h` directly.
  std::uint64_t schedule_resume(Duration delay, std::coroutine_handle<> h) {
    RR_EXPECTS(delay >= Duration::zero());
    RR_EXPECTS(h);
    const std::uint32_t si = acquire_slot();
    pool_[si].handle = h;
    return enqueue(now_ + delay, si);
  }

  /// Cancel a pending event in O(1).  Calling it for an id that already
  /// fired, was already cancelled, or was never issued is a true no-op:
  /// nothing is retained, so cancel-after-fire loops cannot grow state.
  void cancel(std::uint64_t id) {
    const std::uint32_t si = slot_of(id);
    if (si >= pool_.size()) return;
    Slot& s = pool_[si];
    if (!s.in_use || s.generation != generation_of(id) || s.cancelled) return;
    s.cancelled = true;
    s.fn = nullptr;  // release captured state now, not at pop time
    s.handle = nullptr;
    ++cancelled_total_;
    ++tombstones_;
    --live_;
    // Lazy sweep: once tombstones dominate the queues, rebuild both
    // without them (amortized O(1) per cancel) so memory stays flat even
    // if the caller never steps the simulator again.
    if (tombstones_ > live_ && heap_.size() + ready_count_ > kCompactionFloor)
      compact();
    if (trace_) trace_sample();
  }

  /// Run one event.  Returns false if no live events remain (tombstones
  /// encountered on the way are swept and counted in cancelled_run()).
  bool step() {
    for (;;) {
      std::uint32_t si = 0;
      // The clock only moves on once the ready queue is empty, and a
      // heap entry due now goes first (see the header comment).
      if (!heap_.empty() && (ready_count_ == 0 || heap_[0].at == now_)) {
        const HeapItem top = heap_pop_top();
        si = top.slot;
        if (pool_[si].cancelled) {
          drop_tombstone(si);
          continue;
        }
        RR_ASSERT(top.at >= now_);
        now_ = top.at;
      } else if (ready_count_ != 0) {
        si = ready_pop();
        if (pool_[si].cancelled) {
          drop_tombstone(si);
          continue;
        }
      } else {
        return false;
      }
      fire(si);
      return true;
    }
  }

  /// Run until the event queue drains.
  void run() {
    while (step()) {
    }
  }

  /// Run until simulated time would exceed `deadline`; events at exactly
  /// `deadline` still fire, including those they queue at `deadline`.
  /// Cancelled events are swept without advancing time and never unlock
  /// events beyond the deadline.  On return no live event is due at or
  /// before `deadline`, and now() has advanced to `deadline` unless it
  /// was already later.
  void run_until(TimePoint deadline) {
    while (true) {
      sweep_tombstones_at_fronts();
      const bool ready_due = ready_count_ != 0 && now_ <= deadline;
      if (!ready_due && (heap_.empty() || heap_[0].at > deadline)) break;
      step();
    }
    if (now_ < deadline) now_ = deadline;
  }

  /// Callbacks actually executed (cancelled pops are never counted).
  std::uint64_t events_run() const { return events_run_; }
  /// Cancelled events disposed of (swept off a queue or compacted away).
  std::uint64_t cancelled_run() const { return cancelled_run_; }

  bool empty() const { return live_ == 0; }
  /// Live (non-cancelled) pending events.
  std::size_t pending() const { return live_; }

  // --- queue statistics (bench/trace introspection) ---
  std::uint64_t scheduled_total() const { return scheduled_total_; }
  std::uint64_t cancelled_total() const { return cancelled_total_; }
  /// Cancelled events still occupying queue entries (awaiting lazy sweep).
  std::size_t tombstones() const { return tombstones_; }
  /// High-water mark of live pending events.
  std::size_t max_pending() const { return max_pending_; }
  /// Event-pool capacity: bounded by the high-water mark of in-flight
  /// events, independent of how many events ever ran.
  std::size_t pool_capacity() const { return pool_.size(); }
  /// Entries, tombstones included, in the heap (events due after the
  /// time they were scheduled at) and in the ready queue (due then).
  std::size_t heap_size() const { return heap_.size(); }
  std::size_t ready_size() const { return ready_count_; }

  /// Stream queue-depth/tombstone/cancelled-run counter samples into
  /// `trace` (Chrome counter events on `track`) on every queue state
  /// change.  Pass nullptr to detach.  The recorder must outlive the
  /// simulator or a later detach.
  void attach_trace(TraceRecorder* trace, std::string track = "sim.queue") {
    trace_ = trace;
    trace_track_ = std::move(track);
    if (trace_) trace_sample();
  }

 private:
  struct Slot {
    std::function<void()> fn;         // callback event, or
    std::coroutine_handle<> handle;   // resumption event (fn is empty)
    std::uint32_t generation = 1;  // 0 is never issued: cancel(0) is a no-op
    std::uint32_t next_free = 0;
    bool in_use = false;
    bool cancelled = false;
  };

  /// Heap entry: the full (time, seq) sort key lives inline so heap
  /// maintenance never dereferences the pool.
  struct HeapItem {
    TimePoint at;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;
  static constexpr std::size_t kCompactionFloor = 64;

  static std::uint64_t make_id(std::uint32_t generation, std::uint32_t slot) {
    return (static_cast<std::uint64_t>(generation) << 32) | slot;
  }
  static std::uint32_t slot_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  static std::uint32_t generation_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoFreeSlot) {
      const std::uint32_t si = free_head_;
      free_head_ = pool_[si].next_free;
      pool_[si].in_use = true;
      return si;
    }
    pool_.emplace_back();
    pool_.back().in_use = true;
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void release_slot(std::uint32_t si) {
    Slot& s = pool_[si];
    ++s.generation;  // invalidates every outstanding id for this slot
    s.in_use = false;
    s.cancelled = false;
    s.fn = nullptr;
    s.handle = nullptr;
    s.next_free = free_head_;
    free_head_ = si;
  }

  /// Queue the freshly filled slot `si` to fire at `when`.
  std::uint64_t enqueue(TimePoint when, std::uint32_t si) {
    if (when == now_)
      ready_push(si);
    else
      heap_push(HeapItem{when, next_seq_++, si});
    ++scheduled_total_;
    ++live_;
    if (live_ > max_pending_) max_pending_ = live_;
    if (trace_) trace_sample();
    return make_id(pool_[si].generation, si);
  }

  /// Earlier-fires-first ordering: (time, seq) lexicographic.
  static bool before(const HeapItem& a, const HeapItem& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;  // FIFO among same-time events
  }
  /// std::*_heap comparator (max-heap under `later` == min-heap on before).
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      return before(b, a);
    }
  };

  /// Run the live event in slot `si` (already off its queue) at now().
  void fire(std::uint32_t si) {
    Slot& s = pool_[si];
    ++events_run_;
    --live_;
    // Release before running: the callback may schedule (growing the
    // pool) and its own id must already read as fired so that a cancel
    // from inside the callback is a no-op.
    if (const std::coroutine_handle<> h = s.handle) {
      release_slot(si);
      if (trace_) trace_sample();
      h.resume();
      return;
    }
    std::function<void()> fn = std::move(s.fn);
    release_slot(si);
    if (trace_) trace_sample();
    fn();
  }

  /// Dispose of tombstone `si`, already off its queue.
  void drop_tombstone(std::uint32_t si) {
    ++cancelled_run_;
    --tombstones_;
    release_slot(si);
  }

  void heap_push(HeapItem item) {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Remove and return the heap top (must be non-empty).
  HeapItem heap_pop_top() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const HeapItem top = heap_.back();
    heap_.pop_back();
    return top;
  }

  /// The ready queue is a power-of-two ring of slot indices:
  /// ready_count_ of them, oldest at ready_head_.
  std::uint32_t& ready_at(std::size_t i) {
    return ready_[(ready_head_ + i) & (ready_.size() - 1)];
  }

  void ready_push(std::uint32_t si) {
    if (ready_count_ == ready_.size()) ready_grow();
    ready_at(ready_count_++) = si;
  }

  /// Remove and return the oldest ready entry (the queue must not be
  /// empty).
  std::uint32_t ready_pop() {
    const std::uint32_t si = ready_at(0);
    ready_head_ = (ready_head_ + 1) & (ready_.size() - 1);
    --ready_count_;
    return si;
  }

  /// Double the ring, moving its entries to the front in order.
  void ready_grow() {
    std::vector<std::uint32_t> bigger(ready_.empty() ? 16 : 2 * ready_.size());
    for (std::size_t i = 0; i < ready_count_; ++i) bigger[i] = ready_at(i);
    ready_ = std::move(bigger);
    ready_head_ = 0;
  }

  /// Drop every tombstone from both queues: re-heapify the heap's
  /// survivors in place, and close up the ready queue, keeping its order.
  void compact() {
    std::size_t out = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      const HeapItem item = heap_[i];
      if (pool_[item.slot].cancelled)
        drop_tombstone(item.slot);
      else
        heap_[out++] = item;
    }
    heap_.resize(out);
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    std::size_t kept = 0;
    for (std::size_t i = 0; i < ready_count_; ++i) {
      const std::uint32_t si = ready_at(i);
      if (pool_[si].cancelled)
        drop_tombstone(si);
      else
        ready_at(kept++) = si;
    }
    ready_count_ = kept;
  }

  /// Pop tombstones sitting on the heap top and at the ready front (no
  /// time advance).
  void sweep_tombstones_at_fronts() {
    while (!heap_.empty() && pool_[heap_[0].slot].cancelled)
      drop_tombstone(heap_pop_top().slot);
    while (ready_count_ != 0 && pool_[ready_at(0)].cancelled)
      drop_tombstone(ready_pop());
  }

  void trace_sample() {
    trace_->counter("queue_depth", trace_track_, now_,
                    static_cast<double>(live_));
    trace_->counter("tombstones", trace_track_, now_,
                    static_cast<double>(tombstones_));
    trace_->counter("cancelled_run", trace_track_, now_,
                    static_cast<double>(cancelled_run_));
  }

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_run_ = 0;
  std::uint64_t cancelled_run_ = 0;
  std::uint64_t scheduled_total_ = 0;
  std::uint64_t cancelled_total_ = 0;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::size_t max_pending_ = 0;
  std::vector<Slot> pool_;
  std::vector<HeapItem> heap_;
  std::vector<std::uint32_t> ready_;
  std::size_t ready_head_ = 0;
  std::size_t ready_count_ = 0;
  std::uint32_t free_head_ = kNoFreeSlot;
  TraceRecorder* trace_ = nullptr;
  std::string trace_track_;
};

}  // namespace rr::sim
