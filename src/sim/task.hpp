// C++20 coroutine layer over the discrete-event simulator.
//
// A sim::Task<T> is a lazily-started coroutine whose suspensions are
// simulated-time waits.  Tasks compose: `co_await subtask()` transfers
// control and resumes the parent when the child finishes (at the child's
// finish *simulated* time).  Top-level tasks are launched with
// sim::spawn(simulator, task) and owned by the simulator's task registry
// until completion.
//
// Awaitables:
//   co_await Delay{sim, d}        -- sleep for simulated duration d
//   co_await event.wait()         -- wait for Event::set (sim/event.hpp)
//   co_await other_task           -- join a child task, yielding its value
//
// Frames are recycled.  A DES message costs a short-lived coroutine frame
// (its route), so each thread keeps a LIFO free list per 16-byte size class up
// to 1 KiB (FrameCache): the next frame of a class is the one freed last,
// still hot in cache.  Every cached block came from ::operator new and
// goes back to ::operator delete -- when a TaskRegistry drains, when its
// thread exits, or at once if it is freed after that thread's cache is
// gone -- so a frame may be freed on any thread.  Under AddressSanitizer
// a cached frame is poisoned, so a use after free is still reported.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "sim/simulator.hpp"
#include "util/expect.hpp"

namespace rr::sim {

template <typename T = void>
class Task;

namespace detail {

/// The calling thread's free lists of coroutine frames, one per 16-byte
/// size class up to kMaxBytes; larger frames bypass it.  Trivially
/// destructible and constant-initialized, so the hot path reads it with
/// no thread-local guard; the first cached frame registers the thread-exit
/// release (adopt(), in task.cpp).
class FrameCache {
 public:
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kMaxBytes = 1024;

  static void* allocate(std::size_t n) {
    if (n > kMaxBytes) return ::operator new(n);
    Node*& head = local_.heads_[class_of(n)];
    if (Node* frame = head) {
      unpoison(frame, n);
      head = frame->next;
      return frame;
    }
    return ::operator new(class_bytes(n));
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    if (n > kMaxBytes) return ::operator delete(p, n);
    if (local_.state_ != State::kLive) {
      if (local_.state_ == State::kReleased)
        return ::operator delete(p, class_bytes(n));
      adopt();
    }
    Node*& head = local_.heads_[class_of(n)];
    Node* frame = static_cast<Node*>(p);
    frame->next = head;
    head = frame;
    poison(frame, n);
  }

  /// Hand the calling thread's cached frames back to ::operator delete.
  static void trim() noexcept;

  /// Frames the calling thread holds cached (walks every list).
  static std::size_t cached_frames();

 private:
  struct Node {
    Node* next;
  };
  enum class State : unsigned char { kUnused, kLive, kReleased };
  static constexpr std::size_t kClasses = kMaxBytes / kGranule;

  static std::size_t class_of(std::size_t n) { return (n - 1) / kGranule; }
  static std::size_t class_bytes(std::size_t n) {
    return (class_of(n) + 1) * kGranule;
  }
  static void poison([[maybe_unused]] Node* frame, [[maybe_unused]] std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(frame, class_bytes(n));
#endif
  }
  static void unpoison([[maybe_unused]] Node* frame, [[maybe_unused]] std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(frame, class_bytes(n));
#endif
  }

  /// Arm the release of this thread's frames at thread exit.
  static void adopt() noexcept;
  /// trim(), and later frees on this thread bypass the cache.
  static void release() noexcept;

  Node* heads_[kClasses] = {};
  State state_ = State::kUnused;

  static constinit thread_local FrameCache local_;
};

inline constinit thread_local FrameCache FrameCache::local_{};

struct PromiseBase {
  static void* operator new(std::size_t n) { return FrameCache::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FrameCache::deallocate(p, n);
  }

  std::coroutine_handle<> continuation;  // resumed at final_suspend
  std::exception_ptr exception;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      PromiseBase& promise = h.promise();
      if (promise.continuation) return promise.continuation;
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Task<T> get_return_object();
  void return_value(T v) { value = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

/// Lazily-started coroutine handle with single-consumer join semantics.
template <typename T>
class Task {
 public:
  using promise_type = detail::Promise<T>;

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)),
        started_(std::exchange(other.started_, false)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
      started_ = std::exchange(other.started_, false);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  /// Start the coroutine immediately (used by spawn and by co_await).
  /// Touches nothing of *this once the coroutine runs: a task it spawns
  /// may grow the registry's vector and move this Task.
  void start() {
    RR_EXPECTS(handle_ && !started_);
    started_ = true;
    const std::coroutine_handle<> h = handle_;
    h.resume();
  }

  /// Awaiting a task starts it and suspends the awaiter until completion.
  auto operator co_await() && {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const { return child.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
        child.promise().continuation = parent;
        return child;  // symmetric transfer: start the child now
      }
      T await_resume() {
        if (child.promise().exception) std::rethrow_exception(child.promise().exception);
        if constexpr (!std::is_void_v<T>) {
          RR_ASSERT(child.promise().value.has_value());
          return std::move(*child.promise().value);
        }
      }
    };
    RR_EXPECTS(handle_);
    started_ = true;
    return Awaiter{handle_};
  }

  /// Retrieve the result after completion (spawned-task path).
  T result() const
    requires(!std::is_void_v<T>)
  {
    RR_EXPECTS(done());
    if (handle_.promise().exception) std::rethrow_exception(handle_.promise().exception);
    return *handle_.promise().value;
  }

  /// The exception the finished coroutine ended with, or null.
  std::exception_ptr failure() const {
    RR_EXPECTS(done());
    return handle_.promise().exception;
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_ = nullptr;
  bool started_ = false;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>{std::coroutine_handle<Promise<T>>::from_promise(*this)};
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>{std::coroutine_handle<Promise<void>>::from_promise(*this)};
}

}  // namespace detail

/// Awaitable simulated-time sleep.
class Delay {
 public:
  Delay(Simulator& sim, Duration d) : sim_(&sim), d_(d) {}
  bool await_ready() const { return d_ == Duration::zero(); }
  void await_suspend(std::coroutine_handle<> h) { sim_->schedule_resume(d_, h); }
  void await_resume() {}

 private:
  Simulator* sim_;
  Duration d_;
};

/// Registry that owns detached top-level tasks until they complete.
/// One registry per simulation scenario; it must outlive the simulator run.
class TaskRegistry {
 public:
  explicit TaskRegistry(Simulator& sim) : sim_(&sim) {}

  /// Launch a top-level task.  The registry keeps it alive; completed tasks
  /// are reaped in batches, each time the registry has doubled since the
  /// last reap, so launching N tasks costs O(N) and a long-lived registry
  /// holds at most twice its live tasks plus a constant.
  void spawn(Task<void> task) {
    if (tasks_.size() >= reap_at_) reap();
    tasks_.push_back(std::move(task));
    tasks_.back().start();
  }

  /// Run the simulator until all events fire, then verify every spawned
  /// task completed (i.e. no task deadlocked waiting on a message).
  /// Returns the number of completed tasks; rethrows the first failure of
  /// any task, reaped or not.  The run's cached frames go back to the
  /// heap: a finished simulation keeps no frame memory.
  std::size_t drain() {
    sim_->run();
    reap();
    detail::FrameCache::trim();
    if (failure_) std::rethrow_exception(failure_);
    return reaped_;
  }

  std::size_t live_count() const {
    std::size_t n = 0;
    for (const Task<void>& t : tasks_)
      if (!t.done()) ++n;
    return n;
  }
  std::size_t spawned_count() const { return tasks_.size() + reaped_; }

  Simulator& simulator() { return *sim_; }

 private:
  static constexpr std::size_t kMinReapBatch = 64;

  /// Destroy every finished task, keeping the first failure for drain().
  void reap() {
    std::erase_if(tasks_, [this](const Task<void>& t) {
      if (!t.done()) return false;
      if (!failure_) failure_ = t.failure();
      ++reaped_;
      return true;
    });
    reap_at_ = std::max(2 * tasks_.size(), kMinReapBatch);
  }

  Simulator* sim_;
  std::vector<Task<void>> tasks_;  // by value: a task is its 16 B handle
  std::size_t reaped_ = 0;
  std::size_t reap_at_ = kMinReapBatch;
  std::exception_ptr failure_;
};

}  // namespace rr::sim
