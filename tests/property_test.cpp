// Property-based and parameterized sweeps over the substrates: invariants
// that must hold for ALL configurations, not just the paper's points.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "comm/channel.hpp"
#include "mem/cache.hpp"
#include "sim/reference_simulator.hpp"
#include "sim/simulator.hpp"
#include "spu/pipeline.hpp"
#include "sweep/solver.hpp"
#include "sweep_engine/engine.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"

namespace rr::comm {

// gtest names each value-parameterized case with its printed parameter,
// and ctest lists that name.  Without this a preset prints as its raw
// bytes -- a heap pointer first -- so the names change between builds.
static void PrintTo(const ChannelParams& p, std::ostream* os) {
  *os << p.name;
}

}  // namespace rr::comm

namespace rr {
namespace {

// ---------------------------------------------------------------------------
// Topology invariants over all CU counts
// ---------------------------------------------------------------------------

class TopologyInvariants : public ::testing::TestWithParam<int> {
 protected:
  // One topology per CU count for the whole process: the five invariant
  // cases at a given parameter share it instead of rebuilding (17 CUs is
  // a 3,060-node, 900-crossbar construction per call).
  static const topo::FatTree& topology_for(int cu_count) {
    static std::map<int, topo::FatTree> cache;
    static std::mutex mu;
    const std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(cu_count);
    if (it == cache.end()) {
      topo::FatTreeParams p;
      p.cu_count = cu_count;
      it = cache.emplace(cu_count, topo::FatTree::build(p)).first;
    }
    return it->second;
  }
  const topo::FatTree& build() const { return topology_for(GetParam()); }
};

TEST_P(TopologyInvariants, HistogramAccountsForEveryNode) {
  const topo::FatTree& t = build();
  const auto hist = t.hop_histogram(topo::NodeId{0});
  int total = 0;
  for (const int c : hist) total += c;
  EXPECT_EQ(total, t.node_count());
}

TEST_P(TopologyInvariants, HopCountsAreOddOrZero) {
  // Every route visits alternating levels, so crossbar counts are odd
  // (source and destination crossbars included) except self = 0.
  const topo::FatTree& t = build();
  const auto hist = t.hop_histogram(topo::NodeId{0});
  for (std::size_t h = 0; h < hist.size(); ++h) {
    if (h == 0) continue;
    if (h % 2 == 0) {
      EXPECT_EQ(hist[h], 0) << "even hop count " << h;
    }
  }
}

TEST_P(TopologyInvariants, MaxHopsIsSeven) {
  const topo::FatTree& t = build();
  EXPECT_LE(t.hop_histogram(topo::NodeId{0}).size(), 8u);
}

TEST_P(TopologyInvariants, RandomRoutesAreValidAndSymmetricInLength) {
  const topo::FatTree& t = build();
  Rng rng(GetParam() * 1000 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    const int a = static_cast<int>(rng.next_below(t.node_count()));
    const int b = static_cast<int>(rng.next_below(t.node_count()));
    const auto path = t.route(topo::NodeId{a}, topo::NodeId{b});
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      ASSERT_TRUE(t.adjacent(path[i], path[i + 1])) << a << "->" << b;
    const std::set<int> unique(path.begin(), path.end());
    ASSERT_EQ(unique.size(), path.size()) << "loop " << a << "->" << b;
    EXPECT_EQ(t.hop_count(topo::NodeId{a}, topo::NodeId{b}),
              t.hop_count(topo::NodeId{b}, topo::NodeId{a}));
  }
}

TEST_P(TopologyInvariants, FirstHopIsAlwaysTheSourceCrossbar) {
  const topo::FatTree& t = build();
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int a = static_cast<int>(rng.next_below(t.node_count()));
    int b = static_cast<int>(rng.next_below(t.node_count()));
    if (a == b) b = (b + 1) % t.node_count();
    const auto path = t.route(topo::NodeId{a}, topo::NodeId{b});
    const topo::Attachment& att = t.attachment(topo::NodeId{a});
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), t.cu_lower_id(att.cu, att.lower_xbar));
  }
}

INSTANTIATE_TEST_SUITE_P(CuCounts, TopologyInvariants,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 13, 15, 17),
                         [](const auto& inf) {
                           return "cus" + std::to_string(inf.param);
                         });

// ---------------------------------------------------------------------------
// SPU pipeline invariants over random programs
// ---------------------------------------------------------------------------

spu::Program random_program(Rng& rng, int length) {
  spu::Program p;
  p.reserve(length);
  for (int i = 0; i < length; ++i) {
    const auto cls = static_cast<spu::IClass>(rng.next_below(spu::kNumIClasses));
    const int dst = 16 + static_cast<int>(rng.next_below(64));
    const int src = rng.next_double() < 0.5 ? 16 + static_cast<int>(rng.next_below(64))
                                            : 8;  // r8 always ready
    p.push_back(spu::op(cls, dst, src));
  }
  return p;
}

class SpuRandomPrograms : public ::testing::TestWithParam<int> {};

TEST_P(SpuRandomPrograms, DeterministicAndBounded) {
  Rng rng(GetParam());
  const spu::Program p = random_program(rng, 64);
  const spu::SpuPipeline pxc{spu::PipelineSpec::powerxcell_8i()};
  const auto a = pxc.run(p, 4);
  const auto b = pxc.run(p, 4);
  EXPECT_EQ(a.cycles, b.cycles);  // determinism

  // Lower bound: dual issue means at most 2 instructions per cycle, and
  // each pipe retires at most one per cycle.
  std::uint64_t even = 0, odd = 0;
  for (int rep = 0; rep < 4; ++rep)
    for (const auto& in : p)
      (spu::pipe_of(in.cls) == spu::Pipe::kEven ? even : odd) += 1;
  EXPECT_GE(a.cycles, (even + odd + 1) / 2);
  EXPECT_GE(a.cycles, std::max(even, odd));
  // Sanity upper bound: no instruction can take more than latency+stall
  // cycles on its own.
  EXPECT_LE(a.cycles, (even + odd) * 20);
}

TEST_P(SpuRandomPrograms, CellBeNeverFasterThanPowerXCell) {
  Rng rng(GetParam() + 999);
  const spu::Program p = random_program(rng, 48);
  const spu::SpuPipeline pxc{spu::PipelineSpec::powerxcell_8i()};
  const spu::SpuPipeline cbe{spu::PipelineSpec::cell_be()};
  EXPECT_LE(pxc.run(p, 4).cycles, cbe.run(p, 4).cycles);
}

TEST_P(SpuRandomPrograms, MoreIterationsNeverCheaper) {
  Rng rng(GetParam() + 5);
  const spu::Program p = random_program(rng, 32);
  const spu::SpuPipeline pxc{spu::PipelineSpec::powerxcell_8i()};
  EXPECT_LE(pxc.run(p, 2).cycles, pxc.run(p, 4).cycles);
  EXPECT_LE(pxc.run(p, 4).cycles, pxc.run(p, 8).cycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpuRandomPrograms, ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// SPU pipeline: the issue-stepped run against the cycle-by-cycle walk
// ---------------------------------------------------------------------------

// SpuPipeline::run before it became issue-stepped: one loop iteration per
// cycle, attempting up to two issues in each.  Its body is copied verbatim
// (`spec_` became `spec`); it is the oracle the issue-stepped run must
// match in every RunStats field.
spu::RunStats cycle_stepped_run(const spu::PipelineSpec& spec,
                                std::span<const spu::Instr> body, int iterations) {
  using namespace spu;
  RR_EXPECTS(iterations >= 1);
  RR_EXPECTS(!body.empty());

  // Scoreboard state.
  std::array<std::uint64_t, kNumRegisters> reg_ready{};  // cycle result is usable
  std::array<std::uint64_t, kNumIClasses> unit_free{};   // next legal issue cycle
  std::uint64_t global_free = 0;  // next cycle any instruction may issue

  RunStats stats;
  std::uint64_t cycle = 0;
  std::size_t pc = 0;  // index into the conceptually unrolled stream
  const std::size_t total = body.size() * static_cast<std::size_t>(iterations);

  while (pc < total) {
    bool even_used = false;
    bool odd_used = false;
    int issued_this_cycle = 0;

    // In-order issue: attempt the next instruction; on success, attempt one
    // more if it targets the other pipe.  Stop at the first stall.
    while (pc < total && issued_this_cycle < 2) {
      const Instr& in = body[pc % body.size()];
      const Pipe pipe = pipe_of(in.cls);
      if (pipe == Pipe::kEven && even_used) break;
      if (pipe == Pipe::kOdd && odd_used) break;
      if (cycle < global_free) break;
      if (cycle < unit_free[static_cast<int>(in.cls)]) break;
      bool operands_ready = true;
      for (const std::int16_t s : in.src)
        if (s >= 0 && reg_ready[s] > cycle) {
          operands_ready = false;
          break;
        }
      if (!operands_ready) break;

      // Issue.
      const ClassTiming& t = spec.of(in.cls);
      if (in.dst >= 0) reg_ready[in.dst] = cycle + static_cast<std::uint64_t>(t.latency);
      unit_free[static_cast<int>(in.cls)] =
          cycle + 1 + static_cast<std::uint64_t>(t.local_stall);
      if (t.global_stall > 0)
        global_free = std::max(global_free,
                               cycle + 1 + static_cast<std::uint64_t>(t.global_stall));
      if (pipe == Pipe::kEven) even_used = true;
      else odd_used = true;
      ++issued_this_cycle;
      ++pc;
      ++stats.instructions;
    }

    if (issued_this_cycle == 2) ++stats.dual_issue_cycles;
    if (issued_this_cycle == 0) ++stats.idle_cycles;
    ++cycle;
  }

  // Drain: account the latency of the last value produced so that a single
  // dependent chain reports its full length.
  std::uint64_t last_ready = cycle;
  for (const std::uint64_t r : reg_ready) last_ready = std::max(last_ready, r);
  stats.cycles = last_ready;
  return stats;
}

// Either preset, or a random table: latency 1-15, local stall 0-3, and a
// global stall of 0-6 on about a quarter of the classes.
spu::PipelineSpec random_spec(Rng& rng) {
  switch (rng.next_below(3)) {
    case 0: return spu::PipelineSpec::cell_be();
    case 1: return spu::PipelineSpec::powerxcell_8i();
    default: break;
  }
  spu::PipelineSpec spec;
  for (spu::ClassTiming& t : spec.timing) {
    t.latency = 1 + static_cast<int>(rng.next_below(15));
    t.local_stall = static_cast<int>(rng.next_below(4));
    t.global_stall = rng.next_below(4) == 0 ? static_cast<int>(rng.next_below(7)) : 0;
  }
  return spec;
}

TEST(SpuPipelineProperty, IssueSteppedRunMatchesCycleSteppedReference) {
  Rng rng(31);
  // 20,000 runs of 1-12 iterations, then 5,000 of 13-300: long enough that
  // most reach a repeated state and skip the rest of their steady state.
  for (int c = 0; c < 25000; ++c) {
    const spu::PipelineSpec spec = random_spec(rng);
    // 1-40 instructions over 1-24 registers; a quarter of the destinations
    // and operands are -1 (none), so programs mix chains and free issues.
    const int regs = 1 + static_cast<int>(rng.next_below(24));
    const auto reg = [&] {
      return rng.next_below(4) == 0 ? -1 : static_cast<int>(rng.next_below(regs));
    };
    spu::Program p(1 + rng.next_below(40));
    for (spu::Instr& in : p) {
      const auto cls = static_cast<spu::IClass>(rng.next_below(spu::kNumIClasses));
      const int dst = reg();
      const int s0 = reg();
      const int s1 = reg();
      const int s2 = reg();
      in = spu::op(cls, dst, s0, s1, s2);
    }
    const int iterations = c < 20000 ? 1 + static_cast<int>(rng.next_below(12))
                                     : 13 + static_cast<int>(rng.next_below(288));

    const spu::RunStats want = cycle_stepped_run(spec, p, iterations);
    const spu::RunStats got = spu::SpuPipeline(spec).run(p, iterations);
    ASSERT_EQ(got.cycles, want.cycles) << "case " << c;
    ASSERT_EQ(got.instructions, want.instructions) << "case " << c;
    ASSERT_EQ(got.dual_issue_cycles, want.dual_issue_cycles) << "case " << c;
    ASSERT_EQ(got.idle_cycles, want.idle_cycles) << "case " << c;
  }
}

// ---------------------------------------------------------------------------
// Channel model invariants over all presets
// ---------------------------------------------------------------------------

class ChannelInvariants : public ::testing::TestWithParam<comm::ChannelParams> {};

TEST_P(ChannelInvariants, TimeMonotonePerProtocolRegime) {
  // Real stacks have a discontinuity at the eager/rendezvous threshold
  // (a fixed implementation choice, not a per-message optimization), so
  // monotonicity is only guaranteed within each regime.
  const comm::ChannelModel ch(GetParam());
  const std::int64_t threshold = GetParam().eager_threshold.b();
  Duration prev = Duration::zero();
  for (std::int64_t n = 1; n <= threshold; n *= 2) {
    const Duration t = ch.one_way(DataSize::bytes(n));
    EXPECT_GE(t.ps(), prev.ps()) << "eager n=" << n;
    prev = t;
  }
  prev = Duration::zero();
  for (std::int64_t n = threshold + 1; n <= (1 << 22); n *= 2) {
    const Duration t = ch.one_way(DataSize::bytes(n));
    EXPECT_GE(t.ps(), prev.ps()) << "rendezvous n=" << n;
    prev = t;
  }
}

TEST_P(ChannelInvariants, BandwidthNeverExceedsTheFasterRegime) {
  const comm::ChannelModel ch(GetParam());
  const double cap = std::max(GetParam().eager_bandwidth.bps(),
                              GetParam().rendezvous_bandwidth.bps());
  for (std::int64_t n = 1; n <= (1 << 22); n *= 2)
    EXPECT_LE(ch.uni_bandwidth(DataSize::bytes(n)).bps(), cap * 1.0001) << n;
}

TEST_P(ChannelInvariants, BidirNeverBeatsTwiceUnidirectional) {
  const comm::ChannelModel ch(GetParam());
  for (std::int64_t n = 64; n <= (1 << 21); n *= 8) {
    const DataSize d = DataSize::bytes(n);
    EXPECT_LE(ch.bidir_bandwidth_sum(d).bps(), 2.0 * ch.uni_bandwidth(d).bps() * 1.0001)
        << "n=" << n;
  }
}

TEST_P(ChannelInvariants, ZeroByteIsPureLatency) {
  const comm::ChannelModel ch(GetParam());
  EXPECT_EQ(ch.one_way(DataSize::zero()).ps(), GetParam().latency.ps());
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ChannelInvariants,
    ::testing::Values(comm::dacs_pcie(), comm::mpi_infiniband(true),
                      comm::mpi_infiniband(false), comm::mpi_infiniband_pinned(),
                      comm::cml_eib(), comm::pcie_raw(), comm::hypertransport()),
    [](const auto& inf) {
      std::string name = inf.param.name;
      for (auto& ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      return name;
    });

// ---------------------------------------------------------------------------
// Cache simulator invariants
// ---------------------------------------------------------------------------

TEST(CacheProperties, HitsPlusMissesEqualsAccesses) {
  mem::CacheLevel c(mem::CacheLevelSpec{"L1", DataSize::kib(8), 4,
                                        DataSize::bytes(64), Duration::nanoseconds(1)});
  Rng rng(11);
  const int accesses = 5000;
  for (int i = 0; i < accesses; ++i) c.access(rng.next_below(1 << 16));
  EXPECT_EQ(c.hits() + c.misses(), static_cast<std::uint64_t>(accesses));
}

TEST(CacheProperties, BiggerCacheNeverHitsLess) {
  auto run = [](std::int64_t kib) {
    mem::CacheLevel c(mem::CacheLevelSpec{"L", DataSize::kib(static_cast<double>(kib)),
                                          4, DataSize::bytes(64),
                                          Duration::nanoseconds(1)});
    Rng rng(13);
    for (int i = 0; i < 20000; ++i) c.access(rng.next_below(1 << 17));
    return c.hits();
  };
  EXPECT_LE(run(8), run(32));
  EXPECT_LE(run(32), run(128));
  EXPECT_LE(run(128), run(512));
}

TEST(CacheProperties, SequentialFitWorkingSetAlwaysHitsAfterWarm) {
  mem::CacheLevel c(mem::CacheLevelSpec{"L1", DataSize::kib(16), 4,
                                        DataSize::bytes(64), Duration::nanoseconds(1)});
  for (int lap = 0; lap < 3; ++lap)
    for (std::uint64_t a = 0; a < 8 * 1024; a += 64) c.access(a);
  c.reset_counters();
  for (std::uint64_t a = 0; a < 8 * 1024; a += 64) c.access(a);
  EXPECT_EQ(c.misses(), 0u);
}

// ---------------------------------------------------------------------------
// Transport solver properties over parameter sweeps
// ---------------------------------------------------------------------------

struct SweepCase {
  double sigma_t;
  double sigma_s;
};

class SolverProperties : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SolverProperties, ConvergesWithPositiveBalancedFlux) {
  sweep::Problem p;
  p.nx = p.ny = p.nz = 6;
  p.dx = p.dy = p.dz = 0.8;
  p.sigma_t = GetParam().sigma_t;
  p.sigma_s = GetParam().sigma_s;
  const sweep::SolveResult r = sweep::solve(p, 1e-9, 800);
  ASSERT_TRUE(r.converged);
  for (const double f : r.scalar_flux) EXPECT_GT(f, 0.0);
  EXPECT_LT(sweep::balance_residual(p, r), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    CrossSections, SolverProperties,
    ::testing::Values(SweepCase{0.5, 0.0}, SweepCase{1.0, 0.3}, SweepCase{1.0, 0.9},
                      SweepCase{2.0, 1.0}, SweepCase{5.0, 2.5}, SweepCase{0.1, 0.05}),
    [](const auto& inf) {
      return "st" + std::to_string(static_cast<int>(inf.param.sigma_t * 10)) + "ss" +
             std::to_string(static_cast<int>(inf.param.sigma_s * 10));
    });

TEST(SolverProperties, MoreScatteringNeedsMoreIterations) {
  sweep::Problem low;
  low.nx = low.ny = low.nz = 6;
  low.sigma_s = 0.2;
  sweep::Problem high = low;
  high.sigma_s = 0.9;
  EXPECT_LT(sweep::solve(low, 1e-9, 500).iterations,
            sweep::solve(high, 1e-9, 500).iterations);
}

TEST(SolverProperties, SourceIncreaseRaisesFluxGloballyDespiteDdRinging) {
  // The exact transport operator is monotone in the source.  Diamond
  // differencing, however, rings spatially around a localized source
  // (cells neighboring the spike can dip by ~0.1% -- a textbook DD
  // property), so the guaranteed discrete invariants are: the integrated
  // flux grows, the source cell's flux grows, and any local dips are tiny.
  sweep::Problem p;
  p.nx = p.ny = p.nz = 6;
  p.flux_fixup = false;
  const auto base = sweep::solve(p, 1e-11, 500);
  sweep::Problem boosted = p;
  boosted.q.assign(p.cells(), 1.0);
  boosted.q[p.idx(3, 3, 3)] = 5.0;  // extra source in one cell
  const auto more = sweep::solve(boosted, 1e-11, 500);

  double base_total = 0.0, more_total = 0.0;
  for (std::size_t c = 0; c < p.cells(); ++c) {
    base_total += base.scalar_flux[c];
    more_total += more.scalar_flux[c];
    EXPECT_GE(more.scalar_flux[c], base.scalar_flux[c] * 0.90) << c;  // ringing bound
  }
  EXPECT_GT(more_total, base_total);
  EXPECT_GT(more.scalar_flux[p.idx(3, 3, 3)], base.scalar_flux[p.idx(3, 3, 3)] * 1.5);
}

// ---------------------------------------------------------------------------
// DES queue equivalence: the laned-heap Simulator must fire events in
// exactly the order the legacy priority-queue ReferenceSimulator does, for
// random interleavings of schedule / step (including events that schedule
// children from their callbacks).
// ---------------------------------------------------------------------------

template <typename Sim>
struct DesDriver {
  Sim sim;
  /// (now_ps, marker) per executed callback: the full firing trajectory.
  std::vector<std::pair<std::int64_t, std::uint64_t>> log;
  std::uint64_t next_marker = 0;
  /// Delays children draw from; empty means any delay in [0, 97) ps.
  std::vector<std::int64_t> child_delays_ps;

  void schedule_marked(Duration d, int depth) {
    schedule_marked_at(sim.now() + d, depth);
  }

  void schedule_marked_at(TimePoint when, int depth) {
    const std::uint64_t m = next_marker++;
    sim.schedule_at(when, [this, m, depth] {
      log.emplace_back(sim.now().ps(), m);
      if (depth > 0) {
        // Deterministic child delay derived from the marker, so both
        // engines grow identical event trees from their callbacks.
        const std::uint64_t pick = m * 7919 + 13;
        schedule_marked(
            Duration::picoseconds(
                child_delays_ps.empty()
                    ? static_cast<std::int64_t>(pick % 97)
                    : child_delays_ps[pick % child_delays_ps.size()]),
            depth - 1);
      }
    });
  }
};

class DesQueueEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DesQueueEquivalence, RandomInterleavingsFireIdentically) {
  // Small delays, 40% of them zero, so same-time ties are common: FIFO
  // among heap entries, and zero-delay events queued in the ready queue
  // beside heap events due at the same time (after a step moved the
  // clock there).
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9e3779b9ULL + 1);
  DesDriver<sim::Simulator> heap;
  DesDriver<sim::ReferenceSimulator> ref;
  for (int op = 0; op < 3000; ++op) {
    if (rng.next_double() < 0.50) {
      const auto d = Duration::picoseconds(
          rng.next_double() < 0.4 ? 0 : static_cast<std::int64_t>(rng.next_below(64)));
      const int depth = rng.next_double() < 0.3 ? 1 : 0;
      heap.schedule_marked(d, depth);
      ref.schedule_marked(d, depth);
    } else {
      ASSERT_EQ(heap.sim.step(), ref.sim.step()) << "op " << op;
    }
    ASSERT_EQ(heap.sim.now().ps(), ref.sim.now().ps()) << "op " << op;
  }
  while (heap.sim.step()) {
  }
  while (ref.sim.step()) {
  }
  EXPECT_EQ(heap.log, ref.log);  // bit-identical firing order and times
  EXPECT_EQ(heap.sim.now().ps(), ref.sim.now().ps());
  EXPECT_EQ(heap.sim.events_run(), ref.sim.events_run());
  EXPECT_GT(heap.sim.events_run(), 1000u);
  EXPECT_EQ(heap.sim.pending(), 0u);
  EXPECT_EQ(heap.sim.ready_size(), 0u);
}

TEST_P(DesQueueEquivalence, DelayLanesFireIdentically) {
  // The same oracle with delays drawn from a small fixed set, as in the
  // Sweep3D DES, so nearly every timed event joins a delay lane.  The
  // set holds 20 delays, 0 among them, so with all of them pending four
  // overflow the 16 lanes into the heap as one-offs.  Filling phases
  // alternate with draining ones, in which lanes empty and are then
  // reassigned.  Children run as in the case above, and bursts of steps
  // drain the queue in runs.
  static constexpr std::int64_t kDelays[] = {0,   4,   9,   15,  22,  30,  39,
                                             49,  60,  72,  85,  99,  114, 130,
                                             147, 165, 184, 204, 225, 247};
  constexpr std::uint64_t kCommon = 6;  // most events carry one of these
  constexpr std::size_t kLanes = 16;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x6a09e667ULL + 11);
  DesDriver<sim::Simulator> heap;
  DesDriver<sim::ReferenceSimulator> ref;
  heap.child_delays_ps.assign(std::begin(kDelays), std::end(kDelays));
  ref.child_delays_ps = heap.child_delays_ps;
  bool filled = false, overflowed = false, drained = false, reassigned = false;
  for (int op = 0; op < 3000; ++op) {
    // Alternate filling and draining phases of 300 operations each.
    const bool filling = (op / 300) % 2 == 0;
    const double r = rng.next_double();
    if (op % 600 == 299) {
      // End of a filling phase: queue a wave of 64 events over the whole
      // set.
      for (std::size_t i = 0; i < 64; ++i) {
        const auto d = Duration::picoseconds(kDelays[i % std::size(kDelays)]);
        heap.schedule_marked(d, 0);
        ref.schedule_marked(d, 0);
      }
    } else if (r < (filling ? 0.70 : 0.25)) {
      const std::uint64_t k = rng.next_double() < 0.7
                                  ? rng.next_below(kCommon)
                                  : rng.next_below(std::size(kDelays));
      const TimePoint when = heap.sim.now() + Duration::picoseconds(kDelays[k]);
      const int depth = rng.next_double() < 0.3 ? 1 : 0;
      heap.schedule_marked_at(when, depth);
      ref.schedule_marked_at(when, depth);
    } else {
      // One step, or a burst of 1 to 40.
      const std::uint64_t steps =
          r < (filling ? 0.95 : 0.85) ? 1 : 1 + rng.next_below(40);
      for (std::uint64_t k = 0; k < steps; ++k) {
        const bool fired = heap.sim.step();
        ASSERT_EQ(ref.sim.step(), fired) << "op " << op;
        if (!fired) break;
        ASSERT_EQ(heap.sim.now().ps(), ref.sim.now().ps()) << "op " << op;
      }
    }
    ASSERT_EQ(heap.log, ref.log) << "op " << op;
    const std::size_t lanes = heap.sim.lanes_in_use();
    if (lanes == kLanes && heap.sim.heap_size() > kLanes) overflowed = true;
    if (filled && lanes < kLanes) drained = true;
    if (drained && lanes == kLanes) reassigned = true;
    if (lanes == kLanes) filled = true;
  }
  while (heap.sim.step()) {
  }
  while (ref.sim.step()) {
  }
  EXPECT_EQ(heap.log, ref.log);
  EXPECT_EQ(heap.sim.events_run(), ref.sim.events_run());
  EXPECT_GT(heap.sim.events_run(), 1000u);
  EXPECT_EQ(heap.sim.pending(), 0u);
  EXPECT_EQ(heap.sim.lanes_in_use(), 0u);
  EXPECT_EQ(heap.sim.lane_size(), 0u);
  // Every lane path ran: all 16 lanes busy with delays left over for the
  // heap, and a lane freed and taken again.
  EXPECT_TRUE(overflowed);
  EXPECT_TRUE(reassigned);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DesQueueEquivalence, ::testing::Range(1, 13),
                         [](const auto& inf) {
                           return "seed" + std::to_string(inf.param);
                         });

// ---------------------------------------------------------------------------
// Sweep-engine thread-pool invariants (src/sweep_engine)
// ---------------------------------------------------------------------------

class PoolInvariants : public ::testing::TestWithParam<int> {};  // thread count

TEST_P(PoolInvariants, EveryScenarioRunsExactlyOnce) {
  engine::SweepEngine eng({GetParam()});
  const int n = 97;  // not a multiple of any worker count
  std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
  eng.map<int>(n, [&](int i) {
    return runs[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << "scenario " << i;
}

TEST_P(PoolInvariants, ResultsKeyedByIndexNotCompletionOrder) {
  engine::SweepEngine eng({GetParam()});
  const int n = 31;
  // Early indices sleep longest, so on a multi-worker pool high indices
  // complete first; slots must still line up with scenario indices.
  const auto out = eng.map<int>(n, [&](int i) {
    std::this_thread::sleep_for(std::chrono::microseconds(40 * (n - i)));
    return i * i + 3;
  });
  ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i + 3);
}

TEST_P(PoolInvariants, OneThrowingScenarioDoesNotPoisonTheBatch) {
  engine::SweepEngine eng({GetParam()});
  const int n = 30;
  const auto out = eng.try_map<int>(n, [&](int i) {
    if (i % 5 == 0) throw std::runtime_error("scenario " + std::to_string(i));
    return 10 * i;
  });
  EXPECT_EQ(out.failed, 6);
  EXPECT_FALSE(out.ok());
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (i % 5 == 0) {
      EXPECT_FALSE(out.results[idx].has_value()) << i;
      EXPECT_EQ(out.errors[idx], "scenario " + std::to_string(i));
    } else {
      ASSERT_TRUE(out.results[idx].has_value()) << i;  // others completed
      EXPECT_EQ(*out.results[idx], 10 * i);
      EXPECT_TRUE(out.errors[idx].empty());
    }
  }
}

TEST_P(PoolInvariants, MapRethrowsTheFirstFailureByIndex) {
  engine::SweepEngine eng({GetParam()});
  try {
    eng.map<int>(20, [&](int i) {
      if (i == 7 || i == 13) throw std::runtime_error("boom");
      return i;
    });
    FAIL() << "map() must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "scenario 7: boom");  // lowest index, not first done
  }
}

TEST_P(PoolInvariants, EmptyBatchCompletesImmediately) {
  engine::SweepEngine eng({GetParam()});
  const auto out = eng.map<int>(0, [](int) { return 1; });
  EXPECT_TRUE(out.empty());
}

TEST_P(PoolInvariants, BackToBackBatchesStayIsolated) {
  // Regression: batches much smaller than the pool, issued back to back,
  // so workers routinely wake for a batch that faster peers have already
  // drained.  A straggler must never claim indices from -- or write
  // into -- a later batch's state (use-after-free / lost-result race).
  engine::SweepEngine eng({GetParam()});
  for (int batch = 0; batch < 500; ++batch) {
    const int n = 1 + batch % 3;
    const auto out = eng.map<int>(n, [&](int i) { return batch * 100 + i; });
    ASSERT_EQ(out.size(), static_cast<std::size_t>(n)) << "batch " << batch;
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(out[static_cast<std::size_t>(i)], batch * 100 + i)
          << "batch " << batch << " i " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PoolInvariants,
                         ::testing::Values(1, 2, 3, 8), [](const auto& inf) {
                           return "t" + std::to_string(inf.param);
                         });

TEST(SolverProperties, UniformSourceScalingIsExactlyMonotone) {
  // Without spatial gradients there is no DD ringing: scaling a uniform
  // source raises every cell's flux.
  sweep::Problem p;
  p.nx = p.ny = p.nz = 6;
  p.flux_fixup = false;
  const auto base = sweep::solve(p, 1e-11, 500);
  sweep::Problem boosted = p;
  boosted.q.assign(p.cells(), 1.5);
  const auto more = sweep::solve(boosted, 1e-11, 500);
  for (std::size_t c = 0; c < p.cells(); ++c)
    EXPECT_GT(more.scalar_flux[c], base.scalar_flux[c]) << c;
}

}  // namespace
}  // namespace rr
