// Cycle-exact SPU pipeline timing simulator.
//
// Models exactly the three properties the paper's assembly microbenchmarks
// measure per execution group (Section IV.A):
//   latency      -- cycles from entering to exiting the pipeline,
//   local stall  -- minimum cycles between two issues to the same unit,
//   global stall -- cycles the whole processor stalls before ANY further
//                   instruction may issue.
//
// The scoreboard is issue-stepped: each step jumps straight to the next
// cycle in which the in-order head may issue, instead of walking every
// stall cycle.  That is exact, not an approximation: the scoreboard only
// changes when an instruction issues, and issue is in order, so every
// skipped cycle is one in which nothing could issue -- an idle cycle a
// cycle-by-cycle walk would count the same.  A step therefore costs time
// per instruction, not per cycle (a Cell BE FPD chain is 13 cycles per
// instruction).
//
// A run also skips its steady state.  The loop reads the scoreboard only
// through max() with the current cycle (the head issues at the latest of
// the cycle and its ready time, the pair check compares the next
// instruction's ready time with that cycle, and an issue overwrites its
// entries or raises them past the cycle), so from any step the run
// depends only on the scoreboard relative to the cycle, with entries
// already past read as 0, and on the head's body index.  When an
// iteration starts in the state the previous one started in, every later
// iteration repeats that one: the remaining whole periods are added (their
// instructions, cycles, idle and dual-issue cycles, and every entry still
// ahead of the clock moved forward) and only the remainder is stepped.  A
// run's cost grows with the iterations it steps until its state repeats,
// a few for every kernel here, not with the iterations it asks for.
// tests/property_test.cpp keeps the cycle-by-cycle walk as the oracle both
// shortcuts must match.
//
// The only timing difference between the Cell BE and the PowerXCell 8i is
// the FPD group: latency 13 -> 9 and the unit becomes fully pipelined
// (global stall 6 -> 0), which raises SPE double-precision peak from
// 14.6 to 102.4 Gflop/s for the 8-SPE aggregate.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "arch/spec.hpp"
#include "spu/isa.hpp"
#include "util/units.hpp"

namespace rr::spu {

struct ClassTiming {
  int latency = 1;       ///< result available `latency` cycles after issue
  int local_stall = 0;   ///< extra cycles before the same unit may re-issue
  int global_stall = 0;  ///< cycles no instruction at all may issue
};

struct PipelineSpec {
  std::array<ClassTiming, kNumIClasses> timing{};
  Frequency clock = Frequency::ghz(3.2);

  const ClassTiming& of(IClass c) const { return timing[static_cast<int>(c)]; }
  ClassTiming& of(IClass c) { return timing[static_cast<int>(c)]; }

  /// Issue-to-issue repetition distance of a group (Fig. 5 metric);
  /// 1 == fully pipelined.
  int repetition_distance(IClass c) const {
    return 1 + of(c).local_stall + of(c).global_stall;
  }

  static PipelineSpec cell_be();
  static PipelineSpec powerxcell_8i();
  static PipelineSpec for_variant(arch::CellVariant variant);
};

/// Result of a timed run.
struct RunStats {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t dual_issue_cycles = 0;  ///< cycles where both pipes issued
  std::uint64_t idle_cycles = 0;        ///< cycles where nothing issued

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) / static_cast<double>(cycles);
  }
};

/// In-order dual-issue timing simulator.  Stateless between run() calls.
class SpuPipeline {
 public:
  explicit SpuPipeline(PipelineSpec spec) : spec_(spec) {}

  const PipelineSpec& spec() const { return spec_; }

  /// Simulate `iterations` back-to-back executions of `body` (a loop with
  /// its own branch included in the body, perfectly predicted) and return
  /// timing statistics.  Register state carries across iterations, so
  /// loop-carried dependences are honored.  Issue-stepped: one step per
  /// cycle that issues, skipping (and counting as idle) the stall cycles
  /// in between.  Steady-state skipping: once an iteration starts in the
  /// relative scoreboard state and body index the previous one started
  /// in, the remaining whole iterations are added, not stepped.  The cost
  /// grows with body.size() times the iterations stepped before the state
  /// repeats, not with `iterations` or the cycles simulated; the
  /// statistics equal a cycle-by-cycle walk.
  RunStats run(std::span<const Instr> body, int iterations = 1) const;

  /// Cycles per iteration in steady state: runs a warm-up, then measures
  /// the marginal cost of additional iterations (removes pipeline-fill
  /// transients; this is how the microbenchmarks compute slopes).
  double steady_cycles_per_iteration(std::span<const Instr> body,
                                     int measure_iterations = 64) const;

  /// Wall-clock duration of `cycles` at the modeled clock.
  Duration to_time(double cycles) const { return spec_.clock.cycles(cycles); }

 private:
  PipelineSpec spec_;
};

}  // namespace rr::spu
