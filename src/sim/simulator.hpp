// Discrete-event simulation engine.
//
// Events are (time, sequence, callback) triples ordered by time then by
// insertion sequence, so same-time events fire in a deterministic FIFO
// order.  Simulated time is integer picoseconds (rr::TimePoint), which
// makes runs bit-reproducible.
//
// Pending events wait in one of three places over a pool of event
// slots:
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
//     std::function SBO of a reused slot).
//
// A scheduled event always fires: nothing removes a pending event
// (DESIGN.md §9 records why).
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

  /// Schedule `fn` to run `delay` after now.
  void schedule(Duration delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `when` (must not be in the past).
  /// An event due now joins the ready queue behind every other event due
  /// now.
  void schedule_at(TimePoint when, std::function<void()> fn) {
    RR_EXPECTS(when >= now_);
    const std::uint32_t si = acquire_slot();
    pool_[si].fn = std::move(fn);
    enqueue(when, si);
  }

  /// Resume coroutine `h` `delay` after now.  The event is an ordinary
  /// one (same counters and FIFO among same-time events as schedule()),
  /// but firing it resumes `h` directly.
  void schedule_resume(Duration delay, std::coroutine_handle<> h) {
    RR_EXPECTS(delay >= Duration::zero());
    RR_EXPECTS(h);
    const std::uint32_t si = acquire_slot();
    pool_[si].handle = h;
    enqueue(now_ + delay, si);
  }

  /// Run one event.  Returns false if none is pending.
  bool step() {
    std::uint32_t si = 0;
    // The clock only moves on once the ready queue is empty, and a heap
    // entry due now goes first (see the header comment).
    if (!heap_.empty() && (ready_.empty() || heap_[0].at == now_)) {
      const HeapItem top = heap_pop_top();
      RR_ASSERT(top.at >= now_);
      now_ = top.at;
      si = top.slot;
    } else if (!ready_.empty()) {
      si = ready_.pop_front();
    } else {
      return false;
    }
    fire(si);
    return true;
  }

  /// Run until the event queue drains.
  void run() {
    while (step()) {
    }
  }

  /// Events fired so far.
  std::uint64_t events_run() const { return events_run_; }

  /// Events scheduled and not yet fired.
  std::size_t pending() const { return live_; }

  // --- queue statistics (bench/trace introspection) ---
  std::uint64_t scheduled_total() const { return scheduled_total_; }
  /// High-water mark of pending events.
  std::size_t max_pending() const { return max_pending_; }
  /// Event-pool capacity: bounded by the high-water mark of in-flight
  /// events, independent of how many events ever ran.
  std::size_t pool_capacity() const { return pool_.size(); }
  /// Entries in the heap (each busy lane's front and the one-off
  /// delays), queued behind the lane fronts, and in the ready queue
  /// (events due at the time they were scheduled at).
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

  /// Stream queue-depth counter samples into `trace` (Chrome counter
  /// events on `track`) on every queue state change.  Pass nullptr to
  /// detach.  The recorder must outlive the simulator or a later detach.
  void attach_trace(TraceRecorder* trace, std::string track = "sim.queue") {
    trace_ = trace;
    trace_track_ = std::move(track);
    if (trace_) trace_sample();
  }

 private:
  struct Slot {
    std::function<void()> fn;         // callback event, or
    std::coroutine_handle<> handle;   // resumption event (fn is empty)
    std::uint32_t next_free = 0;
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

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoFreeSlot) {
      const std::uint32_t si = free_head_;
      free_head_ = pool_[si].next_free;
      return si;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void release_slot(std::uint32_t si) {
    Slot& s = pool_[si];
    s.fn = nullptr;
    s.handle = nullptr;
    s.next_free = free_head_;
    free_head_ = si;
  }

  /// Queue the freshly filled slot `si` to fire at `when`.
  void enqueue(TimePoint when, std::uint32_t si) {
    if (when == now_)
      ready_.push_back(si);
    else
      timed_push(HeapItem{when, next_seq_++, si});
    ++scheduled_total_;
    ++live_;
    if (live_ > max_pending_) max_pending_ = live_;
    if (trace_) trace_sample();
  }

  /// Earlier-fires-first ordering: (time, seq) lexicographic.
  static bool before(const HeapItem& a, const HeapItem& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;  // FIFO among same-time events
  }

  /// Run the event in slot `si` (already off its queue) at now().
  void fire(std::uint32_t si) {
    Slot& s = pool_[si];
    ++events_run_;
    --live_;
    // Release before running: the callback may schedule, and growing the
    // pool would move `s`.
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

  void trace_sample() {
    trace_->counter("queue_depth", trace_track_, now_,
                    static_cast<double>(live_));
  }

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_run_ = 0;
  std::uint64_t scheduled_total_ = 0;
  std::size_t live_ = 0;
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
