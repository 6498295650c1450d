#include "sweep_engine/thread_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/expect.hpp"

namespace rr::engine {

namespace {

// Pool instrumentation (DESIGN.md §10): one histogram sample per index
// for queue wait and run time, a counter per index run.  All writes are
// relaxed shard increments -- negligible next to a scenario's work.
struct PoolMetrics {
  obs::Histogram& queue_wait_us;
  obs::Histogram& scenario_us;
  obs::Counter& indices_run;
  obs::Counter& batches;

  static PoolMetrics& instance() {
    static PoolMetrics m{
        obs::MetricsRegistry::global().histogram("pool.queue_wait_us",
                                                 obs::latency_bounds_us()),
        obs::MetricsRegistry::global().histogram("pool.scenario_us",
                                                 obs::latency_bounds_us()),
        obs::MetricsRegistry::global().counter("pool.indices_run"),
        obs::MetricsRegistry::global().counter("pool.batches")};
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(int threads) {
  RR_EXPECTS(threads >= 0);
  if (threads == 0)
    threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::vector<std::exception_ptr> ThreadPool::for_each_index(
    int n, const std::function<void(int)>& fn) {
  RR_EXPECTS(n >= 0);
  if (n == 0) return {};
  auto batch = std::make_shared<Batch>();
  batch->fn = fn;
  batch->n = n;
  batch->errors.resize(static_cast<std::size_t>(n));
  batch->submitted = std::chrono::steady_clock::now();
  PoolMetrics::instance().batches.inc();
  {
    std::lock_guard lock(mu_);
    batch_ = batch;
    ++generation_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [&batch] { return batch->done == batch->n; });
    if (batch_ == batch) batch_ = nullptr;
  }
  // done == n means every index ran and its worker checked in under the
  // mutex; a straggler that wakes for this batch later finds next >= n
  // and never touches fn or errors, so moving the vector out is safe
  // (the Batch itself stays alive through the straggler's shared_ptr).
  return std::move(batch->errors);
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  while (true) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [this, seen_generation] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
      batch = batch_;
    }
    if (!batch) continue;  // batch already drained and cleared
    int completed = 0;
    while (true) {
      const int i = batch->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch->n) break;
      PoolMetrics& pm = PoolMetrics::instance();
      const auto t0 = std::chrono::steady_clock::now();
      pm.queue_wait_us.observe(
          std::chrono::duration<double, std::micro>(t0 - batch->submitted)
              .count());
      try {
        batch->fn(i);
      } catch (...) {
        // Each index owns its slot; publication happens-before the
        // caller's read via the mutex-guarded done count below.
        batch->errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
      pm.scenario_us.observe(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
      pm.indices_run.inc();
      ++completed;
    }
    if (completed > 0) {
      std::lock_guard lock(mu_);
      batch->done += completed;
      if (batch->done == batch->n) done_cv_.notify_one();
    }
  }
}

}  // namespace rr::engine
