// Discrete-event simulation engine.
//
// Events are (time, sequence, callback) triples ordered by time then by
// insertion sequence, so same-time events fire in a deterministic FIFO
// order.  Simulated time is integer picoseconds (rr::TimePoint), which
// makes runs bit-reproducible.
//
// Pending events wait in one of three places over a generational event
// pool:
//   * events due after now() join the delay lane for their delay (when -
//     now()): a FIFO ring of 24-byte (time, seq, slot) PODs.  A lane is
//     sorted by construction -- now() never decreases and seq only grows,
//     so entries pushed with one delay come out in (time, seq) order --
//     and only its front sits in an indexed 4-ary min-heap.  A push into
//     a busy lane is O(1) with no sift, and popping a lane front replaces
//     the heap top with the lane's next entry in one sift.  A lane is
//     reassigned to another delay only once it is empty; a delay that
//     finds no lane of its own and no free one goes into the heap as a
//     one-off entry.  The heap top is still the earliest pending event,
//     so the firing order is exactly what one heap would give.  The sort
//     key is inline, so sifting is branch-light sequential memory traffic
//     that never moves a std::function; only the pool slot owns the
//     callback;
//   * events due at now() -- schedule(0, ...), and the zero-delay
//     schedule_resume() calls with which Resource::release, Event::set
//     and CML's deliver wake their waiters -- skip the heap and join a
//     FIFO ring of slots, the ready queue.  step() fires heap entries due at
//     now() before the ready queue: each was queued before the clock
//     reached now(), so its seq is below that of every ready entry, and
//     the (time, seq) firing order is exactly what one heap would give;
//   * a slot holds either a callback or a coroutine handle: coroutine
//     wake-ups (sim/task.hpp, resources, events) store the handle and
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
//     the heap top and the ready front, with a bulk compaction of the
//     heap, the lanes and the ready queue once they outnumber live
//     events, so cancel-heavy workloads stay O(log n) per event with flat
//     memory.
//
// Two programming styles are supported:
//   * callback style: sim.schedule(delay, fn)
//   * coroutine style (sim/task.hpp): co_await Delay{sim, d}, resources,
//     events, ...
#pragma once

#include <algorithm>
#include <array>
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
    // Lazy sweep: once tombstones dominate the queues, rebuild them
    // without them (amortized O(1) per cancel) so memory stays flat even
    // if the caller never steps the simulator again.
    if (tombstones_ > live_ &&
        heap_.size() + lane_size() + ready_.size() > kCompactionFloor)
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
      if (!heap_.empty() && (ready_.empty() || heap_[0].at == now_)) {
        const HeapItem top = heap_pop_top();
        si = top.slot;
        if (pool_[si].cancelled) {
          drop_tombstone(si);
          continue;
        }
        RR_ASSERT(top.at >= now_);
        now_ = top.at;
      } else if (!ready_.empty()) {
        si = ready_.pop_front();
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
      const bool ready_due = !ready_.empty() && now_ <= deadline;
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
  /// Entries, tombstones included, in the heap (each busy lane's front
  /// and the one-off delays), queued behind the lane fronts, and in the
  /// ready queue (events due at the time they were scheduled at).
  std::size_t heap_size() const { return heap_.size(); }
  std::size_t lane_size() const {
    std::size_t n = 0;
    for (const Ring<HeapItem>& lane : lanes_) n += lane.size();
    return n;
  }
  std::size_t ready_size() const { return ready_.size(); }
  /// Delay lanes holding at least one entry (their front in the heap).
  std::size_t lanes_in_use() const {
    return static_cast<std::size_t>(std::count_if(
        lane_delay_.begin(), lane_delay_.end(),
        [](std::int64_t d) { return d != kFreeLane; }));
  }

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

  /// Delay lanes.  16 covers a Sweep3D iteration at paper scale: its
  /// timed events carry 8 distinct delays when the x and y faces are
  /// square (block compute, and the SPE<->PPE leg, PCIe, EIB and IB at
  /// 1/3/5/7 hops for the one message size) and 15 when the two faces
  /// differ in size (those seven legs for each size).
  static constexpr std::uint32_t kLanes = 16;
  static constexpr std::uint32_t kNoLane = kLanes;
  /// A free lane's delay: every lane delay is positive (delay 0 joins
  /// the ready queue).
  static constexpr std::int64_t kFreeLane = 0;
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;
  static constexpr std::size_t kCompactionFloor = 64;

  /// Heap and lane entry: the full (time, seq) sort key lives inline so
  /// queue maintenance never dereferences the pool.  `lane` (kNoLane for
  /// a one-off delay) rides in what would be padding.
  struct HeapItem {
    TimePoint at;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t lane = kNoLane;
  };
  static_assert(sizeof(HeapItem) == 24);

  /// A FIFO over a power-of-two ring that doubles when full: the ready
  /// queue (slot indices) and each delay lane (the entries behind its
  /// front).  A ring allocates nothing until its first push.
  template <typename T>
  class Ring {
   public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    const T& front() const { return buf_[head_]; }

    void push_back(const T& v) {
      if (count_ == buf_.size()) grow();
      at(count_++) = v;
    }

    /// Remove and return the oldest entry (the ring must not be empty).
    T pop_front() {
      const T v = buf_[head_];
      head_ = (head_ + 1) & (buf_.size() - 1);
      --count_;
      return v;
    }

    /// Keep the entries `keep` accepts, in order.
    template <typename Keep>
    void retain(Keep keep) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < count_; ++i)
        if (keep(at(i))) at(kept++) = at(i);
      count_ = kept;
    }

   private:
    T& at(std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }

    /// Double the ring, moving its entries to the front in order.
    void grow() {
      std::vector<T> bigger(buf_.empty() ? 16 : 2 * buf_.size());
      for (std::size_t i = 0; i < count_; ++i) bigger[i] = at(i);
      buf_ = std::move(bigger);
      head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

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
      ready_.push_back(si);
    else
      timed_push(HeapItem{when, next_seq_++, si});
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

  /// Queue a timed entry: behind its delay's lane, at the front of a
  /// free lane, or in the heap as a one-off.
  void timed_push(HeapItem item) {
    const std::int64_t delay = (item.at - now_).ps();
    std::uint32_t free_lane = kNoLane;
    for (std::uint32_t i = 0; i < kLanes; ++i) {
      if (lane_delay_[i] == delay) {
        item.lane = i;
        lanes_[i].push_back(item);
        return;
      }
      if (lane_delay_[i] == kFreeLane && free_lane == kNoLane) free_lane = i;
    }
    if (free_lane != kNoLane) {
      lane_delay_[free_lane] = delay;
      item.lane = free_lane;
    }
    heap_.push_back(item);
    sift_up(heap_.size() - 1, item);
  }

  /// Remove and return the heap top (the heap must not be empty).  A
  /// lane front gives way to its lane's next entry; a lane left empty is
  /// free again.
  HeapItem heap_pop_top() {
    const HeapItem top = heap_[0];
    if (top.lane != kNoLane) {
      Ring<HeapItem>& lane = lanes_[top.lane];
      if (!lane.empty()) {
        sift_down(0, lane.pop_front());
        return top;
      }
      lane_delay_[top.lane] = kFreeLane;
    }
    const HeapItem last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    return top;
  }

  /// Move `item` up from the hole at `i` to its place.
  void sift_up(std::size_t i, HeapItem item) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(item, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = item;
  }

  /// Move `item` down from the hole at `i` to its place.
  void sift_down(std::size_t i, HeapItem item) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + 4, n);
      std::size_t child = first;
      for (std::size_t c = first + 1; c < end; ++c)
        if (before(heap_[c], heap_[child])) child = c;
      if (!before(heap_[child], item)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = item;
  }

  /// Drop every tombstone from the lanes, the heap and the ready queue.
  /// Lanes and the ready queue keep their order; a dropped lane front
  /// gives way to its lane's next (live) entry, and the heap is rebuilt.
  void compact() {
    const auto live = [this](std::uint32_t si) {
      if (!pool_[si].cancelled) return true;
      drop_tombstone(si);
      return false;
    };
    for (Ring<HeapItem>& lane : lanes_)
      lane.retain([&](const HeapItem& item) { return live(item.slot); });
    std::size_t out = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      HeapItem item = heap_[i];
      if (!live(item.slot)) {
        if (item.lane == kNoLane) continue;
        if (lanes_[item.lane].empty()) {
          lane_delay_[item.lane] = kFreeLane;
          continue;
        }
        item = lanes_[item.lane].pop_front();
      }
      heap_[out++] = item;
    }
    heap_.resize(out);
    if (out > 1)
      for (std::size_t i = (out - 2) / 4 + 1; i-- > 0;) sift_down(i, heap_[i]);
    ready_.retain(live);
  }

  /// Pop tombstones sitting on the heap top and at the ready front (no
  /// time advance).
  void sweep_tombstones_at_fronts() {
    while (!heap_.empty() && pool_[heap_[0].slot].cancelled)
      drop_tombstone(heap_pop_top().slot);
    while (!ready_.empty() && pool_[ready_.front()].cancelled)
      drop_tombstone(ready_.pop_front());
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
  std::array<std::int64_t, kLanes> lane_delay_{};  ///< ps, or kFreeLane
  std::array<Ring<HeapItem>, kLanes> lanes_;        ///< behind each front
  Ring<std::uint32_t> ready_;
  std::uint32_t free_head_ = kNoFreeSlot;
  TraceRecorder* trace_ = nullptr;
  std::string trace_track_;
};

}  // namespace rr::sim
