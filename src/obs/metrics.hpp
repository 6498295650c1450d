// Unified metrics substrate (DESIGN.md §10): counters, gauges, and
// fixed-bucket histograms behind one process-wide registry, so every
// subsystem counts and times the same way and every bench exports the
// same snapshot.
//
// Hot-path cost is the design constraint: the sweep engine observes one
// metric per scenario event from N worker threads, so every write path
// is a relaxed atomic op on a cache-line-padded per-thread shard -- no
// locks, no allocation, no false sharing.  Reads (snapshot, value())
// merge the shards in fixed order; counts are exact, and sums are exact
// whenever the samples are exactly representable (integers below 2^53),
// which is what the determinism tests assert.
//
// Handles returned by the registry are stable for the registry's
// lifetime: instrumented code looks a metric up once (or keeps a static
// reference) and writes through the pointer forever after.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rr::obs {

/// Write-side sharding factor.  Threads hash onto shards, so contention
/// is ~1/kShards of a single shared atomic; merge cost stays trivial.
inline constexpr std::size_t kShards = 16;

namespace detail {

/// This thread's shard index (hashed thread id, cached thread-local).
std::size_t shard_index() noexcept;

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};

/// fetch_add for atomic<double> via CAS (portable across libstdc++ vintages).
inline void atomic_add(std::atomic<double>& a, double x) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonic event count.  add() is one relaxed fetch_add on this
/// thread's shard.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  /// Sum over shards (exact).
  std::uint64_t value() const noexcept;

 private:
  friend class MetricsRegistry;
  void reset() noexcept;
  detail::PaddedU64 shards_[kShards];
};

/// Last-write-wins instantaneous value (queue depth, utilization, rate).
/// add() is a relaxed CAS loop; set() a relaxed store.
class Gauge {
 public:
  void set(double v) noexcept;
  void add(double v) noexcept;
  double value() const noexcept;

 private:
  friend class MetricsRegistry;
  void reset() noexcept;
  std::atomic<std::uint64_t> bits_{0};  ///< bit-cast double
};

/// Fixed-bucket histogram: strictly increasing inclusive upper bounds
/// plus an implicit +Inf overflow bucket.  observe() is a short binary
/// search and three relaxed atomic ops on this thread's shard.  Samples
/// are assumed non-negative (they are latencies and sizes); percentile
/// interpolation treats bucket 0 as spanning [0, bounds[0]].
class Histogram {
 public:
  void observe(double x) noexcept;

  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Merged per-bucket counts, size bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;

  /// Linear-interpolated percentile estimate from the bucket counts,
  /// p in [0, 100].  NaN when empty; samples in the overflow bucket
  /// resolve to the last finite bound (the histogram cannot see past it).
  double percentile(double p) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  void reset() noexcept;

  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::unique_ptr<Shard[]> shards_;
};

/// Default microsecond-latency bucket ladder: 1-2-5 decades from 1 us to
/// 1e7 us (10 s).  Wide enough for fsync, scenario, and span timings.
std::vector<double> latency_bounds_us();

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind k);

/// Point-in-time value of one metric, decoupled from the live atomics.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t ivalue = 0;              ///< counter value
  double value = 0.0;                    ///< gauge value
  std::uint64_t count = 0;               ///< histogram sample count
  double sum = 0.0;                      ///< histogram sample sum
  std::vector<double> bounds;            ///< histogram upper bounds
  std::vector<std::uint64_t> buckets;    ///< histogram counts (+overflow)
};

/// Name-sorted snapshot of a whole registry; the exporters' input.
struct Snapshot {
  std::vector<MetricSnapshot> metrics;

  const MetricSnapshot* find(std::string_view name) const;
};

/// Interpolated percentile from a histogram snapshot (same estimator as
/// Histogram::percentile, usable after the live registry is gone).
double histogram_percentile(const MetricSnapshot& h, double p);

/// Named metric registry.  Lookup is find-or-create under a mutex (cold
/// path only); returned references stay valid for the registry's
/// lifetime.  Re-registering a name with a different kind (or a
/// histogram with different bounds) is a precondition violation.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Deterministic name-sorted snapshot of every registered metric.
  Snapshot snapshot() const;

  /// Zero every metric; handles stay valid.  For tests and for benches
  /// that reuse the process-wide registry across phases.
  void reset();

  std::size_t size() const;

  /// The process-wide default registry that library instrumentation
  /// (thread pool, journal, fabric, ...) writes into.
  static MetricsRegistry& global();

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_;
};

}  // namespace rr::obs
