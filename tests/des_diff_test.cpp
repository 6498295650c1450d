// Differential fuzz harness for the serial DES engine (DESIGN.md §9).
//
// Each seed derives a workload -- partition count, cross-partition delay,
// root timers, and a behavior tree of local timers, cancels,
// cross-partition messages, and cancel+re-arm "interrupt" patterns -- and
// replays it through two engines:
//
//   * sim::ReferenceSimulator  (the pre-rebuild linear-scan oracle)
//   * sim::Simulator           (the serial tombstone heap)
//
// asserting bit-identical event order (time AND marker, in execution
// order), final per-partition state hashes, executed-event counts, and
// final clocks.  Partitions are emulated on the one shared clock: a
// cross-partition message is a plain schedule.  Every decision the
// workload makes is a pure function of (seed, event marker), never of
// wall-clock or shared mutable RNG state -- so any divergence is an
// engine-ordering bug, not harness noise.  The failing seed is printed
// so the exact workload replays under a debugger.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/reference_simulator.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using rr::Duration;
using rr::splitmix64;

// Pure hash of (a, b): the only randomness source in the workload.
std::uint64_t hash2(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b * 0x9e3779b97f4a7c15ULL) ^ 0x5851f42d4c957f2dULL;
  return splitmix64(s);
}

// Marker of the k-th schedule/send call made by event `m`'s callback.
std::uint64_t child_marker(std::uint64_t m, int k) {
  return hash2(m, 0xc0ffee00ULL + static_cast<std::uint64_t>(k));
}

struct Workload {
  int partitions = 1;
  int roots = 8;
  int depth = 4;
  std::int64_t cross_delay_ps = 64;  ///< floor of every cross-partition delay

  static Workload from_seed(std::uint64_t seed) {
    Workload w;
    w.partitions = 1 + static_cast<int>(hash2(seed, 1) % 4);     // 1..4
    w.roots = 12 + static_cast<int>(hash2(seed, 2) % 20);        // 12..31
    w.depth = 3 + static_cast<int>(hash2(seed, 3) % 3);          // 3..5
    static constexpr std::int64_t kCrossDelays[] = {1, 9, 64, 913};
    w.cross_delay_ps = kCrossDelays[hash2(seed, 4) % 4];
    return w;
  }
};

struct LogRecord {
  std::int64_t at_ps = 0;
  std::uint64_t marker = 0;
  bool operator==(const LogRecord&) const = default;
};

struct EngineResult {
  std::vector<LogRecord> log;
  std::uint64_t state_hash = 0;
  std::uint64_t events_run = 0;
  std::int64_t final_now_ps = 0;
};

// One run of one workload on engine `SimT`.
template <class SimT>
class WorkloadRun {
 public:
  WorkloadRun(std::uint64_t seed, const Workload& w)
      : seed_(seed), w_(w), parts_(w.partitions) {}

  EngineResult replay() {
    // One global round-robin pass schedules the roots in the same order on
    // every engine.
    for (int r = 0; r < w_.roots; ++r) {
      const int part = r % w_.partitions;
      const std::uint64_t m = hash2(seed_, 0xb007ULL + r);
      const std::uint64_t h = hash2(seed_, m);
      schedule_local(part, Duration::picoseconds(static_cast<std::int64_t>(h % 997)),
                     m, w_.depth);
    }
    sim_.run();
    EngineResult r;
    r.log = log_;
    r.state_hash = 0x12345678ULL;
    for (const PartState& p : parts_) r.state_hash = hash2(r.state_hash, p.state);
    r.events_run = sim_.events_run();
    r.final_now_ps = sim_.now().ps();
    return r;
  }

 private:
  struct PartState {
    std::uint64_t state = 0;
    std::vector<std::uint64_t> issued;  // markers of cancellable events
    std::unordered_map<std::uint64_t, std::uint64_t> ids;  // marker -> id
  };

  void schedule_local(int part, Duration d, std::uint64_t m, int depth) {
    const std::uint64_t id =
        sim_.schedule(d, [this, part, m, depth] { on_event(part, m, depth); });
    PartState& st = parts_[static_cast<std::size_t>(part)];
    st.issued.push_back(m);
    st.ids[m] = id;
  }

  void on_event(int part, std::uint64_t m, int depth) {
    PartState& st = parts_[static_cast<std::size_t>(part)];
    const std::int64_t now_ps = sim_.now().ps();
    log_.push_back(LogRecord{now_ps, m});
    st.state = hash2(st.state ^ m, static_cast<std::uint64_t>(now_ps));

    const std::uint64_t h = hash2(seed_, m ^ 0xabcdefULL);
    if (depth > 0) {
      // 0..2 local children, including zero-delay ones (same-time
      // ordering is exactly what the FIFO tie-break must reproduce).
      const int kids = static_cast<int>(h % 3);
      for (int k = 0; k < kids; ++k) {
        const std::uint64_t cm = child_marker(m, k);
        const std::uint64_t hk = hash2(seed_, cm);
        schedule_local(part,
                       Duration::picoseconds(static_cast<std::int64_t>(hk % 120)),
                       cm, depth - 1);
      }
      // Cross-partition message: not cancellable, delay >= cross_delay_ps.
      if (w_.partitions > 1 && ((h >> 8) & 3) == 0) {
        int dst = static_cast<int>((h >> 16) %
                                   static_cast<std::uint64_t>(w_.partitions - 1));
        if (dst >= part) ++dst;
        const std::uint64_t cm = child_marker(m, 7);
        const std::uint64_t hk = hash2(seed_, cm);
        sim_.schedule(Duration::picoseconds(w_.cross_delay_ps +
                                            static_cast<std::int64_t>(hk % 257)),
                      [this, dst, cm, depth] { on_event(dst, cm, depth - 1); });
      }
    }
    // Cancel an arbitrary earlier local timer (may already have fired or
    // been cancelled -- a no-op then, in every engine).
    if (((h >> 24) % 3) == 0 && !st.issued.empty()) {
      const std::uint64_t victim = st.issued[(h >> 32) % st.issued.size()];
      sim_.cancel(st.ids[victim]);
      st.state = hash2(st.state, victim);
    }
    // Interrupt pattern: kill a pending timer and immediately re-arm a
    // replacement (watchdog re-arm), possibly at zero delay.
    if (((h >> 40) % 5) == 0 && depth > 0 && !st.issued.empty()) {
      const std::uint64_t victim = st.issued[(h >> 48) % st.issued.size()];
      sim_.cancel(st.ids[victim]);
      const std::uint64_t cm = child_marker(m, 9);
      const std::uint64_t hk = hash2(seed_, cm);
      schedule_local(part,
                     Duration::picoseconds(static_cast<std::int64_t>(hk % 64)),
                     cm, depth - 1);
    }
  }

  std::uint64_t seed_;
  Workload w_;
  SimT sim_;
  std::vector<LogRecord> log_;
  std::vector<PartState> parts_;
};

void expect_identical(const EngineResult& want, const EngineResult& got,
                      std::uint64_t seed, const char* engine) {
  ASSERT_EQ(want.events_run, got.events_run)
      << engine << " diverged on events_run; replay with seed=" << seed;
  ASSERT_EQ(want.log.size(), got.log.size())
      << engine << " diverged on log length; replay with seed=" << seed;
  for (std::size_t i = 0; i < want.log.size(); ++i) {
    ASSERT_EQ(want.log[i].at_ps, got.log[i].at_ps)
        << engine << " diverged at event " << i
        << " (time); replay with seed=" << seed;
    ASSERT_EQ(want.log[i].marker, got.log[i].marker)
        << engine << " diverged at event " << i
        << " (order); replay with seed=" << seed;
  }
  ASSERT_EQ(want.state_hash, got.state_hash)
      << engine << " diverged on final state; replay with seed=" << seed;
  ASSERT_EQ(want.final_now_ps, got.final_now_ps)
      << engine << " diverged on final clock; replay with seed=" << seed;
}

class DesDiff : public ::testing::TestWithParam<int> {};

TEST_P(DesDiff, AllEnginesBitIdentical) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Workload w = Workload::from_seed(seed);
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << " partitions=" << w.partitions
               << " roots=" << w.roots << " depth=" << w.depth
               << " cross_delay_ps=" << w.cross_delay_ps);

  const EngineResult ref =
      WorkloadRun<rr::sim::ReferenceSimulator>(seed, w).replay();
  ASSERT_GT(ref.events_run, 0u);

  const EngineResult serial =
      WorkloadRun<rr::sim::Simulator>(seed, w).replay();
  expect_identical(ref, serial, seed, "serial Simulator");
}

// >= 200 seeded workloads (acceptance floor for the corpus).
INSTANTIATE_TEST_SUITE_P(Corpus, DesDiff, ::testing::Range(0, 200));

}  // namespace
