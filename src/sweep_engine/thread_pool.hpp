// Fixed-size worker pool used by the scenario-sweep engine, and the only
// code in src/ that starts a thread.  The only operation is an indexed
// batch: run fn(i) for every i in [0, n), with workers claiming indices
// from a shared atomic counter.  Per-index exceptions are captured into
// their own slot, so one failing scenario never poisons the rest of the
// batch.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rr::engine {

class ThreadPool {
 public:
  /// `threads == 0` picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Run fn(i) for i = 0..n-1 across the workers; blocks until every
  /// index has run exactly once.  Returns one entry per index: nullptr
  /// on success, the captured exception otherwise.  Not reentrant.
  std::vector<std::exception_ptr> for_each_index(
      int n, const std::function<void(int)>& fn);

 private:
  // Each for_each_index call owns one heap-allocated Batch, shared with
  // the workers via shared_ptr.  A worker that wakes late for an old
  // batch still holds a valid snapshot: it sees next >= n, contributes
  // nothing, and can never touch the state of a newer batch.  The fn is
  // copied in so it outlives the caller's temporary.
  struct Batch {
    std::function<void(int)> fn;
    int n = 0;
    std::atomic<int> next{0};
    int done = 0;  ///< completed indices; guarded by the pool mutex
    std::vector<std::exception_ptr> errors;
    /// Submission stamp: each index's queue wait (claim time minus this)
    /// feeds the obs pool.queue_wait_us histogram.
    std::chrono::steady_clock::time_point submitted;
  };

  void worker_loop();

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for a new batch
  std::condition_variable done_cv_;   ///< caller waits for completion
  std::shared_ptr<Batch> batch_;      ///< current batch; guarded by mu_
  std::uint64_t generation_ = 0;      ///< bumped per batch; guarded by mu_
  bool stop_ = false;                 ///< guarded by mu_
};

}  // namespace rr::engine
