#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <string>
#include <vector>

#include "sim/event.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"
#include "sweep_engine/thread_pool.hpp"

namespace rr::sim {
namespace {

// ---------------------------------------------------------------------------
// Callback engine
// ---------------------------------------------------------------------------

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration::nanoseconds(30), [&] { order.push_back(3); });
  sim.schedule(Duration::nanoseconds(10), [&] { order.push_back(1); });
  sim.schedule(Duration::nanoseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ps(), Duration::nanoseconds(30).ps());
}

TEST(Simulator, SameTimeEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule(Duration::nanoseconds(5), [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedSchedulingAdvancesTime) {
  Simulator sim;
  TimePoint inner_fired;
  sim.schedule(Duration::microseconds(1), [&] {
    sim.schedule(Duration::microseconds(2),
                 [&] { inner_fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_fired.us(), 3.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule(Duration::nanoseconds(10), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i)
    sim.schedule(Duration::microseconds(i), [&] { ++count; });
  sim.run_until(TimePoint::origin() + Duration::microseconds(5));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now().us(), 5.0);
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, EventCountTracksSteps) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(Duration::zero(), [] {});
  sim.run();
  EXPECT_EQ(sim.events_run(), 7u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  TimePoint at;
  sim.schedule(Duration::microseconds(2), [&] {
    sim.schedule(Duration::zero(), [&] { at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(at.us(), 2.0);
}

// ---------------------------------------------------------------------------
// Ready queue: events due now skip the heap
// ---------------------------------------------------------------------------

Task<void> log_received(Event& ev, std::vector<std::string>& log) {
  co_await ev.wait();
  log.push_back("received");
}

TEST(Simulator, DueHeapEventsFireBeforeZeroDelayEventsQueuedAtTheirTime) {
  // a and b were queued at 0 for 10 ns.  Everything a queues at 10 ns --
  // zero-delay callbacks and the wake-up of a task waiting on an Event --
  // was scheduled after b, so it fires after b, as in one (time, seq)
  // heap.
  Simulator sim;
  TaskRegistry reg(sim);
  Event ev(sim);
  std::vector<std::string> log;
  reg.spawn(log_received(ev, log));
  sim.schedule(Duration::nanoseconds(10), [&] {
    log.push_back("a");
    sim.schedule(Duration::zero(), [&] { log.push_back("a+0"); });
    ev.set();
    sim.schedule_at(sim.now(), [&] { log.push_back("a@now"); });
  });
  sim.schedule(Duration::nanoseconds(10), [&] { log.push_back("b"); });
  sim.schedule(Duration::nanoseconds(11), [&] { log.push_back("c"); });
  EXPECT_EQ(reg.drain(), 1u);
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "a+0", "received",
                                           "a@now", "c"}));
  EXPECT_EQ(sim.events_run(), 6u);
}

TEST(Simulator, RunUntilFiresReadyEventsAtTheDeadline) {
  Simulator sim;
  std::vector<std::string> log;
  const TimePoint deadline = TimePoint::origin() + Duration::nanoseconds(5);
  sim.schedule(Duration::nanoseconds(5), [&] {
    log.push_back("due");
    sim.schedule(Duration::zero(), [&] {
      log.push_back("child");
      sim.schedule(Duration::zero(), [&] { log.push_back("grandchild"); });
    });
  });
  sim.schedule(Duration::nanoseconds(6), [&] { log.push_back("late"); });
  sim.run_until(deadline);
  EXPECT_EQ(log, (std::vector<std::string>{"due", "child", "grandchild"}));
  EXPECT_EQ(sim.now(), deadline);
  EXPECT_EQ(sim.ready_size(), 0u);
  // Queued at the deadline from outside the loop: the next call fires it.
  sim.schedule(Duration::zero(), [&] { log.push_back("queued at deadline"); });
  sim.run_until(deadline);
  EXPECT_EQ(log.back(), "queued at deadline");
  EXPECT_EQ(sim.pending(), 1u);
  // A ready queue holding only tombstones lets the clock move on.
  sim.cancel(sim.schedule(Duration::zero(), [&] { log.push_back("cancelled"); }));
  sim.run_until(deadline + Duration::picoseconds(500));
  EXPECT_EQ(sim.now(), deadline + Duration::picoseconds(500));
  EXPECT_EQ(sim.ready_size(), 0u);
  EXPECT_EQ(sim.cancelled_run(), 1u);
  sim.run();
  EXPECT_EQ(log.back(), "late");
  EXPECT_EQ(sim.events_run(), 5u);
}

// ---------------------------------------------------------------------------
// Cancellation semantics (tombstone heap)
// ---------------------------------------------------------------------------

TEST(SimulatorCancel, AfterFireIsTrueNoOpWithBoundedState) {
  // Regression for the unbounded cancel-list bug: cancelling an id whose
  // event already fired must retain nothing.  100k schedule->fire->cancel
  // cycles must leave the queue empty and the pool at its 1-event
  // high-water mark.
  Simulator sim;
  std::uint64_t fired = 0;
  for (int i = 0; i < 100'000; ++i) {
    const auto id = sim.schedule(Duration::nanoseconds(1), [&] { ++fired; });
    ASSERT_TRUE(sim.step());
    sim.cancel(id);  // event already ran: must be a no-op
  }
  EXPECT_EQ(fired, 100'000u);
  EXPECT_EQ(sim.events_run(), 100'000u);
  EXPECT_EQ(sim.cancelled_run(), 0u);  // no-op cancels never become tombstones
  EXPECT_EQ(sim.tombstones(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.heap_size(), 0u);
  EXPECT_LE(sim.pool_capacity(), 2u);  // slots recycled, not accumulated
  EXPECT_EQ(sim.max_pending(), 1u);
}

TEST(SimulatorCancel, UnknownIdIsNoOp) {
  Simulator sim;
  sim.cancel(0);                    // never issued (generation 0)
  sim.cancel(0xdeadbeefdeadbeefULL);  // arbitrary garbage
  bool fired = false;
  sim.schedule(Duration::nanoseconds(5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);  // old engine would have poisoned a future seq
  EXPECT_EQ(sim.cancelled_run(), 0u);
}

TEST(SimulatorCancel, DoubleCancelCountsOnce) {
  Simulator sim;
  const auto id = sim.schedule(Duration::nanoseconds(3), [] { FAIL(); });
  sim.cancel(id);
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(sim.cancelled_total(), 1u);
  EXPECT_EQ(sim.cancelled_run(), 1u);
  EXPECT_EQ(sim.events_run(), 0u);
}

TEST(SimulatorCancel, CancelHeavyBacklogStaysFlat) {
  // schedule+cancel without ever stepping: the lazy compaction must keep
  // both the heap and the pool bounded instead of accreting 100k
  // tombstones.
  Simulator sim;
  for (int i = 0; i < 100'000; ++i) {
    const auto id = sim.schedule(Duration::nanoseconds(i), [] {});
    sim.cancel(id);
  }
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_LE(sim.heap_size(), 128u);
  EXPECT_LE(sim.pool_capacity(), 128u);
  EXPECT_EQ(sim.cancelled_total(), 100'000u);
  EXPECT_EQ(sim.cancelled_run() + sim.tombstones(), 100'000u);
  sim.run();  // sweeps the residual tombstones
  EXPECT_EQ(sim.events_run(), 0u);
  EXPECT_EQ(sim.cancelled_run(), 100'000u);
}

TEST(SimulatorCancel, ZeroDelayCancelBacklogStaysFlat) {
  // The same with every event due now: all of them wait in the ready
  // queue, and the compaction must sweep it as well.
  Simulator sim;
  for (int i = 0; i < 100'000; ++i) {
    const auto id = sim.schedule(Duration::zero(), [] {});
    sim.cancel(id);
  }
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.heap_size(), 0u);
  EXPECT_LE(sim.ready_size(), 128u);
  EXPECT_LE(sim.pool_capacity(), 128u);
  EXPECT_EQ(sim.cancelled_total(), 100'000u);
  EXPECT_EQ(sim.cancelled_run() + sim.tombstones(), 100'000u);
  sim.run();
  EXPECT_EQ(sim.events_run(), 0u);
  EXPECT_EQ(sim.cancelled_run(), 100'000u);
  EXPECT_EQ(sim.ready_size(), 0u);
  EXPECT_EQ(sim.now(), TimePoint::origin());
}

TEST(SimulatorCancel, SlotReuseDoesNotCrossCancel) {
  // After an event fires its pool slot is recycled; cancelling the stale
  // id must not kill the new occupant (generation check).
  Simulator sim;
  const auto old_id = sim.schedule(Duration::nanoseconds(1), [] {});
  ASSERT_TRUE(sim.step());
  bool fired = false;
  sim.schedule(Duration::nanoseconds(1), [&] { fired = true; });
  sim.cancel(old_id);  // stale generation: no-op
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorCancel, CancelOwnEventFromItsCallbackIsNoOp) {
  Simulator sim;
  std::uint64_t id = 0;
  id = sim.schedule(Duration::nanoseconds(1), [&] { sim.cancel(id); });
  sim.run();
  EXPECT_EQ(sim.events_run(), 1u);
  EXPECT_EQ(sim.cancelled_total(), 0u);
}

TEST(SimulatorCancel, RunUntilCountsCancelledPopsSeparately) {
  Simulator sim;
  int fired = 0;
  const auto a = sim.schedule(Duration::nanoseconds(5), [&] { ++fired; });
  sim.schedule(Duration::nanoseconds(15), [&] { ++fired; });
  sim.cancel(a);
  sim.run_until(TimePoint::origin() + Duration::nanoseconds(10));
  // The cancelled pop at t=5 is swept without advancing time, is not an
  // executed event, and must not unlock the t=15 event early.
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_run(), 0u);
  EXPECT_EQ(sim.cancelled_run(), 1u);
  EXPECT_EQ(sim.now().ps(), Duration::nanoseconds(10).ps());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_run(), 1u);
}

TEST(SimulatorCancel, TraceCountersSurfaceQueueStats) {
  Simulator sim;
  TraceRecorder trace;
  sim.attach_trace(&trace, "des");
  const auto a = sim.schedule(Duration::nanoseconds(1), [] {});
  sim.schedule(Duration::nanoseconds(2), [] {});
  EXPECT_EQ(trace.last_counter("queue_depth", "des"), 2.0);
  sim.cancel(a);
  EXPECT_EQ(trace.last_counter("tombstones", "des"), 1.0);
  sim.run();
  EXPECT_EQ(trace.last_counter("queue_depth", "des"), 0.0);
  EXPECT_EQ(trace.last_counter("tombstones", "des"), 0.0);
  EXPECT_EQ(trace.last_counter("cancelled_run", "des"), 1.0);
  EXPECT_GT(trace.counter_samples(), 0u);
  sim.attach_trace(nullptr);
}

// ---------------------------------------------------------------------------
// Coroutine tasks
// ---------------------------------------------------------------------------

Task<void> sleeper(Simulator& sim, Duration d, TimePoint& woke) {
  co_await Delay{sim, d};
  woke = sim.now();
}

TEST(Task, DelayAdvancesSimulatedTime) {
  Simulator sim;
  TaskRegistry reg(sim);
  TimePoint woke;
  reg.spawn(sleeper(sim, Duration::microseconds(7), woke));
  EXPECT_EQ(reg.drain(), 1u);
  EXPECT_EQ(woke.us(), 7.0);
}

Task<int> child_value(Simulator& sim) {
  co_await Delay{sim, Duration::nanoseconds(100)};
  co_return 42;
}

Task<void> parent(Simulator& sim, int& out) {
  out = co_await child_value(sim);
}

TEST(Task, AwaitChildPropagatesValueAndTime) {
  Simulator sim;
  TaskRegistry reg(sim);
  int out = 0;
  reg.spawn(parent(sim, out));
  reg.drain();
  EXPECT_EQ(out, 42);
  EXPECT_EQ(sim.now().ps(), Duration::nanoseconds(100).ps());
}

Task<void> chained(Simulator& sim, std::vector<int>& log, int id, Duration d) {
  co_await Delay{sim, d};
  log.push_back(id);
  co_await Delay{sim, d};
  log.push_back(id + 100);
}

TEST(Task, InterleavingIsDeterministic) {
  Simulator sim;
  TaskRegistry reg(sim);
  std::vector<int> log;
  reg.spawn(chained(sim, log, 1, Duration::nanoseconds(10)));
  reg.spawn(chained(sim, log, 2, Duration::nanoseconds(15)));
  reg.drain();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 101, 102}));
}

Task<void> thrower(Simulator& sim) {
  co_await Delay{sim, Duration::nanoseconds(1)};
  throw std::runtime_error("boom");
}

TEST(Task, ExceptionsSurfaceOnDrain) {
  Simulator sim;
  TaskRegistry reg(sim);
  reg.spawn(thrower(sim));
  EXPECT_THROW(reg.drain(), std::runtime_error);
}

Task<void> throws_at_once() {
  throw std::runtime_error("failed before its first suspension");
  co_return;
}

TEST(TaskRegistry, EarlyFailureSurvivesBatchedReaps) {
  Simulator sim;
  TaskRegistry reg(sim);
  reg.spawn(throws_at_once());
  TimePoint woke;
  // A mix of tasks that finish inside spawn() and tasks that wait, so
  // several batched reaps run (and destroy the failed task) before drain.
  for (int i = 0; i < 10'000; ++i)
    reg.spawn(sleeper(sim, Duration::nanoseconds(i % 3), woke));
  EXPECT_EQ(reg.spawned_count(), 10'001u);
  EXPECT_THROW(reg.drain(), std::runtime_error);
}

TEST(TaskRegistry, CountsStayExactAcrossBatchedReaps) {
  // Per batch of 100 spawns: a third finish inside spawn(), a third wait
  // 1 ns (and finish when the batch's time runs), a third wait past the
  // end of the loop.
  Simulator sim;
  TaskRegistry reg(sim);
  TimePoint woke;
  std::size_t spawned = 0;
  std::size_t long_lived = 0;
  for (int batch = 0; batch < 20; ++batch) {
    std::size_t short_lived = 0;
    for (int i = 0; i < 100; ++i) {
      Duration d = Duration::zero();
      if (i % 3 == 1) {
        d = Duration::nanoseconds(1);
        ++short_lived;
      } else if (i % 3 == 2) {
        d = Duration::seconds(1);
        ++long_lived;
      }
      reg.spawn(sleeper(sim, d, woke));
      ++spawned;
      ASSERT_EQ(reg.spawned_count(), spawned);
      ASSERT_EQ(reg.live_count(), long_lived + short_lived);
    }
    sim.run_until(sim.now() + Duration::nanoseconds(1));
    ASSERT_EQ(reg.live_count(), long_lived);
  }
  EXPECT_EQ(reg.drain(), spawned);
  EXPECT_EQ(reg.live_count(), 0u);
  EXPECT_EQ(reg.spawned_count(), spawned);
}

// ---------------------------------------------------------------------------
// Direct coroutine resumption
// ---------------------------------------------------------------------------

/// Suspends until a schedule_resume() event fires; exposes its id.
struct ResumeAfter {
  Simulator& sim;
  Duration d;
  std::uint64_t& id;
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) { id = sim.schedule_resume(d, h); }
  void await_resume() {}
};

Task<void> log_on_resume(Simulator& sim, Duration d, std::uint64_t& id,
                         std::vector<std::string>& log, std::string name) {
  co_await ResumeAfter{sim, d, id};
  log.push_back(std::move(name));
}

TEST(Simulator, CallbacksAndResumptionsShareOneFifo) {
  const Duration at = Duration::nanoseconds(5);
  for (const bool callback_first : {true, false}) {
    Simulator sim;
    TaskRegistry reg(sim);
    std::vector<std::string> log;
    std::uint64_t a = 0, b = 0;
    const auto callback = [&log](std::string name) {
      return [&log, name] { log.push_back(name); };
    };
    if (callback_first) sim.schedule(at, callback("callback 1"));
    reg.spawn(log_on_resume(sim, at, a, log, "coroutine 1"));
    if (!callback_first) sim.schedule(at, callback("callback 1"));
    reg.spawn(log_on_resume(sim, at, b, log, "coroutine 2"));
    sim.schedule(at, callback("callback 2"));
    EXPECT_EQ(reg.drain(), 2u);
    const std::vector<std::string> expected =
        callback_first ? std::vector<std::string>{"callback 1", "coroutine 1",
                                                  "coroutine 2", "callback 2"}
                       : std::vector<std::string>{"coroutine 1", "callback 1",
                                                  "coroutine 2", "callback 2"};
    EXPECT_EQ(log, expected) << "callback_first=" << callback_first;
    EXPECT_EQ(sim.events_run(), 4u);
    EXPECT_EQ(sim.now().ps(), at.ps());
  }
}

TEST(SimulatorCancel, CancelledResumptionNeverResumes) {
  Simulator sim;
  std::vector<std::string> log;
  std::uint64_t id = 0;
  {
    TaskRegistry reg(sim);
    reg.spawn(log_on_resume(sim, Duration::nanoseconds(5), id, log, "resumed"));
    EXPECT_EQ(sim.pending(), 1u);
    sim.cancel(id);
    EXPECT_EQ(reg.drain(), 0u);  // still suspended: never woken
    EXPECT_EQ(reg.live_count(), 1u);
  }  // destroying the registry destroys the suspended frame
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(sim.events_run(), 0u);
  EXPECT_EQ(sim.cancelled_run(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Frame cache (sim/task.hpp)
// ---------------------------------------------------------------------------

using detail::FrameCache;

/// Completes without suspending, noting the address of its frame.
struct FrameAddress {
  void*& out;
  bool await_ready() const { return false; }
  bool await_suspend(std::coroutine_handle<> h) {
    out = h.address();
    return false;
  }
  void await_resume() {}
};

Task<void> note_frame(void*& out) { co_await FrameAddress{out}; }

/// A frame at least 256 B larger than note_frame's: another size class.
Task<void> note_big_frame(void*& out) {
  std::array<char, 256> pad{};  // used after the await, so in the frame
  co_await FrameAddress{out};
  pad[0] = 1;
}

TEST(FrameCache, NextSameClassFrameIsTheLastFreed) {
  void* first = nullptr;
  void* second = nullptr;
  {
    Task<void> a = note_frame(first);
    Task<void> b = note_frame(second);
    a.start();
    b.start();
  }  // b's frame is freed, then a's
  ASSERT_NE(first, second);
  void* big = nullptr;
  Task<void> other_class = note_big_frame(big);
  other_class.start();
  EXPECT_NE(big, first);
  EXPECT_NE(big, second);
  void* next = nullptr;
  void* after = nullptr;
  Task<void> c = note_frame(next);
  Task<void> d = note_frame(after);
  c.start();
  d.start();
  EXPECT_EQ(next, first);    // the last frame freed comes back first
  EXPECT_EQ(after, second);  // then the one freed before it
}

TEST(FrameCache, DrainHandsTheRunsFramesBackToTheHeap) {
  Simulator sim;
  TaskRegistry reg(sim);
  TimePoint woke;
  for (int i = 0; i < 8; ++i) reg.spawn(sleeper(sim, Duration::nanoseconds(i), woke));
  {
    void* where = nullptr;
    Task<void> done = note_frame(where);
    done.start();
  }
  EXPECT_GE(FrameCache::cached_frames(), 1u);
  EXPECT_EQ(reg.drain(), 8u);
  EXPECT_EQ(FrameCache::cached_frames(), 0u);
  // The cache still recycles after a trim.
  void* first = nullptr;
  void* again = nullptr;
  {
    Task<void> a = note_frame(first);
    a.start();
  }
  Task<void> b = note_frame(again);
  b.start();
  EXPECT_EQ(again, first);
}

Task<int> square_later(Simulator& sim, int i) {
  co_await Delay{sim, Duration::nanoseconds(i)};
  co_return i * i;
}

Task<void> sum_all(std::vector<Task<int>>& tasks, int& sum) {
  for (Task<int>& t : tasks) sum += co_await std::move(t);
}

TEST(FrameCache, TaskMadeOnAPoolWorkerIsDestroyedOnTheCaller) {
  constexpr int kTasks = 16;
  Simulator sim;
  std::vector<Task<int>> tasks(kTasks);
  {
    engine::ThreadPool pool(2);
    // Frames allocated on the workers (from their caches or the heap)...
    pool.for_each_index(kTasks, [&](int i) {
      tasks[static_cast<std::size_t>(i)] = square_later(sim, i);
    });
    // ...and frames made here, freed on the workers: each exits with
    // them cached when the pool is destroyed.
    std::vector<Task<int>> freed_there;
    for (int i = 0; i < kTasks; ++i) freed_there.push_back(square_later(sim, i));
    pool.for_each_index(kTasks, [&](int i) {
      freed_there[static_cast<std::size_t>(i)] = Task<int>{};
    });
  }
  int sum = 0;
  {
    TaskRegistry reg(sim);
    reg.spawn(sum_all(tasks, sum));
    EXPECT_EQ(reg.drain(), 1u);
  }
  EXPECT_EQ(sum, 1240);  // 0^2 + ... + 15^2
  EXPECT_EQ(sim.now().ps(), Duration::nanoseconds(120).ps());
  const std::size_t cached = FrameCache::cached_frames();
  tasks.clear();  // the workers' frames go into this thread's cache
  EXPECT_EQ(FrameCache::cached_frames(), cached + kTasks);
  // And they serve this thread's next tasks.
  int again = 0;
  std::vector<Task<int>> reused;
  for (int i = 0; i < kTasks; ++i) reused.push_back(square_later(sim, i));
  EXPECT_EQ(FrameCache::cached_frames(), cached);
  TaskRegistry reg(sim);
  reg.spawn(sum_all(reused, again));
  EXPECT_EQ(reg.drain(), 1u);
  EXPECT_EQ(again, 1240);
}

TEST(FrameCache, ExitingWorkerReleasesItsFrames) {
  // Watches the worker's exit from a thread-local constructed before the
  // worker caches its first frame, so destroyed after the cache releases.
  struct ExitWatch {
    std::size_t* after_release = nullptr;
    std::size_t* after_late_free = nullptr;
    ~ExitWatch() {
      *after_release = FrameCache::cached_frames();
      void* where = nullptr;
      Task<void> late = note_frame(where);
      late.start();
      late = Task<void>{};  // freed after the release: straight to the heap
      *after_late_free = FrameCache::cached_frames();
    }
  };
  std::size_t before_exit = 0;
  std::size_t after_release = 1;
  std::size_t after_late_free = 1;
  {
    engine::ThreadPool pool(1);
    pool.for_each_index(1, [&](int) {
      thread_local ExitWatch watch;
      watch.after_release = &after_release;
      watch.after_late_free = &after_late_free;
      std::vector<void*> seen(8);
      std::vector<Task<void>> frames;
      for (void*& where : seen) {
        frames.push_back(note_frame(where));
        frames.back().start();
      }
      frames.clear();
      before_exit = FrameCache::cached_frames();
    });
  }  // joins the worker
  EXPECT_GE(before_exit, 8u);
  EXPECT_EQ(after_release, 0u);
  EXPECT_EQ(after_late_free, 0u);
}

// ---------------------------------------------------------------------------
// Resource
// ---------------------------------------------------------------------------

Task<void> use_resource(Simulator& sim, Resource& res, Duration hold,
                        std::vector<double>& done_at) {
  co_await res.acquire();
  co_await Delay{sim, hold};
  res.release();
  done_at.push_back(sim.now().us());
}

TEST(Resource, SerializesContendingTasks) {
  Simulator sim;
  TaskRegistry reg(sim);
  Resource link(sim, 1);
  std::vector<double> done_at;
  for (int i = 0; i < 3; ++i)
    reg.spawn(use_resource(sim, link, Duration::microseconds(10), done_at));
  reg.drain();
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_DOUBLE_EQ(done_at[0], 10.0);
  EXPECT_DOUBLE_EQ(done_at[1], 20.0);
  EXPECT_DOUBLE_EQ(done_at[2], 30.0);
}

TEST(Resource, CapacityTwoAllowsOverlap) {
  Simulator sim;
  TaskRegistry reg(sim);
  Resource link(sim, 2);
  std::vector<double> done_at;
  for (int i = 0; i < 4; ++i)
    reg.spawn(use_resource(sim, link, Duration::microseconds(10), done_at));
  reg.drain();
  ASSERT_EQ(done_at.size(), 4u);
  EXPECT_DOUBLE_EQ(done_at[1], 10.0);
  EXPECT_DOUBLE_EQ(done_at[3], 20.0);
}

Task<void> hold_and_log(Simulator& sim, Resource& res, Duration hold,
                        std::vector<int>& log, int who) {
  co_await res.acquire();
  log.push_back(who);
  co_await Delay{sim, hold};
  res.release();
}

TEST(Resource, DestroyedWaiterIsUnlinkedAndFifoHolds) {
  Simulator sim;
  Resource link(sim, 1);
  std::vector<int> log;
  std::vector<Task<void>> users;
  for (int who = 0; who < 6; ++who) {
    users.push_back(hold_and_log(sim, link, Duration::microseconds(10), log, who));
    users.back().start();
  }
  EXPECT_EQ(link.queue_length(), 5u);  // user 0 holds the token
  // Destroy the head, a middle and the tail waiter while they wait.
  users[1] = Task<void>{};
  users[3] = Task<void>{};
  users[5] = Task<void>{};
  EXPECT_EQ(link.queue_length(), 2u);
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(sim.now().ps(), Duration::microseconds(30).ps());
  EXPECT_EQ(link.queue_length(), 0u);
  EXPECT_EQ(link.available(), 1u);
}

Task<void> acquire_one(Resource& res) { co_await res.acquire(); }

TEST(Resource, AvailableTracksTokens) {
  Simulator sim;
  Resource res(sim, 3);
  EXPECT_EQ(res.available(), 3u);
  std::vector<Task<void>> holders;
  for (int i = 0; i < 2; ++i) {
    holders.push_back(acquire_one(res));
    holders.back().start();
  }
  EXPECT_EQ(res.available(), 1u);
  res.release();
  res.release();
  EXPECT_EQ(res.available(), 3u);
}

TEST(ResourceDeath, ReleasingATokenNobodyHoldsAborts) {
  // A double release of a one-holder link must not hand a second
  // transfer the link: it breaks the release precondition.
  Simulator sim;
  Resource link(sim, 1);
  auto holder = acquire_one(link);
  holder.start();
  link.release();
  EXPECT_EQ(link.available(), 1u);
  EXPECT_DEATH(link.release(), "available_ < capacity_");
  Resource fresh(sim, 2);
  EXPECT_DEATH(fresh.release(), "available_ < capacity_");
}

}  // namespace
}  // namespace rr::sim
