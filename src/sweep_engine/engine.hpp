// Parallel scenario-sweep engine (extension; see DESIGN.md §7).
//
// A sweep is a batch of *independent* simulations -- scaling curves,
// message-size sweeps, Monte-Carlo fault replays.  The engine fans the
// batch across a fixed worker pool and guarantees a determinism
// contract: for a given scenario function, the result vector is
// identical (bitwise, for numeric payloads) no matter how many threads
// run it or in which order scenarios complete, because
//
//   * results land in slots keyed by scenario index, never by
//     completion order;
//   * every random stream is derived from (base seed, scenario index)
//     by SplitMix64 splitting -- no scenario ever touches another's
//     stream, and no stream is shared across threads;
//   * shared precomputations (routing tables, SPU-derived rate tables)
//     are built once behind std::call_once and only read afterwards.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep_engine/thread_pool.hpp"
#include "util/rng.hpp"

namespace rr::engine {

struct EngineConfig {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int threads = 0;
};

/// Child seed for scenario `index`, derived from `base` by SplitMix64
/// splitting.  Statistically independent per index; never hand two
/// scenarios the same stream or share the parent stream between them.
constexpr std::uint64_t scenario_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t s = base;
  const std::uint64_t h = splitmix64(s);
  s = h ^ (index * 0x9e3779b97f4a7c15ULL + 0x6a09e667f3bcc909ULL);
  return splitmix64(s);
}

/// Outcome of a batch where individual scenarios may fail: result slots
/// and error strings are both keyed by scenario index.
template <typename T>
struct BatchOutcome {
  std::vector<std::optional<T>> results;
  std::vector<std::string> errors;  ///< empty string where the scenario succeeded
  int failed = 0;

  bool ok() const { return failed == 0; }
};

class SweepEngine {
 public:
  explicit SweepEngine(EngineConfig cfg = {}) : pool_(cfg.threads) {}

  int threads() const { return pool_.size(); }

  /// Run scenarios 0..n-1; every scenario runs exactly once and results
  /// come back ordered by index.  `fn` must be safe to call from
  /// multiple threads.  A failed scenario keeps a nullopt slot and its
  /// error message; the others still complete.
  template <typename T>
  BatchOutcome<T> try_map(int n, const std::function<T(int)>& fn) {
    BatchOutcome<T> out;
    out.results.resize(static_cast<std::size_t>(n));
    out.errors.resize(static_cast<std::size_t>(n));
    const auto raw = pool_.for_each_index(n, [&](int i) {
      out.results[static_cast<std::size_t>(i)].emplace(fn(i));
    });
    for (int i = 0; i < n; ++i) {
      if (!raw[static_cast<std::size_t>(i)]) continue;
      ++out.failed;
      try {
        std::rethrow_exception(raw[static_cast<std::size_t>(i)]);
      } catch (const std::exception& e) {
        out.errors[static_cast<std::size_t>(i)] = e.what();
      } catch (...) {
        out.errors[static_cast<std::size_t>(i)] = "unknown error";
      }
    }
    return out;
  }

  /// Like try_map, but rethrows the first scenario failure (by index)
  /// after the whole batch has drained.
  template <typename T>
  std::vector<T> map(int n, const std::function<T(int)>& fn) {
    BatchOutcome<T> out = try_map<T>(n, fn);
    std::vector<T> results;
    results.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (!out.results[static_cast<std::size_t>(i)])
        throw std::runtime_error("scenario " + std::to_string(i) + ": " +
                                 out.errors[static_cast<std::size_t>(i)]);
      results.push_back(std::move(*out.results[static_cast<std::size_t>(i)]));
    }
    return results;
  }

 private:
  ThreadPool pool_;
};

}  // namespace rr::engine
