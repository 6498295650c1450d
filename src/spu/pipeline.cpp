#include "spu/pipeline.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace rr::spu {

PipelineSpec PipelineSpec::cell_be() {
  PipelineSpec s;
  s.of(IClass::kBR) = {4, 0, 0};
  s.of(IClass::kFP6) = {6, 0, 0};
  s.of(IClass::kFP7) = {7, 0, 0};
  // Not fully pipelined on the Cell BE: 13-cycle latency and a 6-cycle
  // global stall after issue (repetition distance 7, Section IV.A).
  s.of(IClass::kFPD) = {13, 0, 6};
  s.of(IClass::kFX2) = {2, 0, 0};
  s.of(IClass::kFX3) = {3, 0, 0};
  s.of(IClass::kFXB) = {4, 0, 0};
  s.of(IClass::kLS) = {6, 0, 0};
  s.of(IClass::kSHUF) = {4, 0, 0};
  return s;
}

PipelineSpec PipelineSpec::powerxcell_8i() {
  PipelineSpec s = cell_be();
  // The redesigned DP unit: latency 13 -> 9 and fully pipelined (Fig. 4-5).
  s.of(IClass::kFPD) = {9, 0, 0};
  return s;
}

PipelineSpec PipelineSpec::for_variant(arch::CellVariant variant) {
  return variant == arch::CellVariant::kPowerXCell8i ? powerxcell_8i() : cell_be();
}

RunStats SpuPipeline::run(std::span<const Instr> body, int iterations) const {
  RR_EXPECTS(iterations >= 1);
  RR_EXPECTS(!body.empty());

  // Scoreboard state.
  std::array<std::uint64_t, kNumRegisters> reg_ready{};  // cycle result is usable
  std::array<std::uint64_t, kNumIClasses> unit_free{};   // next legal issue cycle
  std::uint64_t global_free = 0;  // next cycle any instruction may issue

  // The first cycle the scoreboard lets `in` issue in.
  const auto ready_at = [&](const Instr& in) {
    std::uint64_t first = std::max(global_free, unit_free[static_cast<int>(in.cls)]);
    for (const std::int16_t s : in.src)
      if (s >= 0) first = std::max(first, reg_ready[s]);
    return first;
  };
  const auto issue = [&](const Instr& in, std::uint64_t cycle) {
    const ClassTiming& t = spec_.of(in.cls);
    if (in.dst >= 0) reg_ready[in.dst] = cycle + static_cast<std::uint64_t>(t.latency);
    unit_free[static_cast<int>(in.cls)] =
        cycle + 1 + static_cast<std::uint64_t>(t.local_stall);
    if (t.global_stall > 0)
      global_free = std::max(global_free,
                             cycle + 1 + static_cast<std::uint64_t>(t.global_stall));
  };

  RunStats stats;
  std::uint64_t cycle = 0;  // the first cycle the head may issue in
  std::size_t at = 0;       // the head's index in `body`
  const auto advance = [&] {
    if (++at == body.size()) at = 0;
  };
  const std::size_t total = body.size() * static_cast<std::size_t>(iterations);

  // The state a step starts in: every scoreboard entry relative to the
  // cycle (0 once it is past, since the loop reads entries only through
  // max() with the cycle) and the head's body index.  Equal states have
  // equal futures.
  using State = std::array<std::uint64_t, kNumRegisters + kNumIClasses + 2>;
  const auto state = [&] {
    State s;
    std::size_t i = 0;
    const auto ahead = [&](std::uint64_t e) { return std::max(e, cycle) - cycle; };
    for (const std::uint64_t r : reg_ready) s[i++] = ahead(r);
    for (const std::uint64_t u : unit_free) s[i++] = ahead(u);
    s[i++] = ahead(global_free);
    s[i] = at;
    return s;
  };
  // The state, clock and counters at the first step of the last iteration
  // checked; iteration 0 starts at cycle 0 on an empty scoreboard.
  State mark_state{};
  std::uint64_t mark_cycle = 0, mark_idle = 0, mark_dual = 0;
  std::size_t next_iteration = body.size();  // pc the next iteration starts at

  // In-order issue, one step per issue cycle: the head issues in the first
  // cycle its unit, its operands and the global stall allow, and every
  // cycle skipped to get there is idle (the scoreboard only changes when
  // something issues, so nothing could have issued in them).  The next
  // instruction pairs with it when it targets the other pipe and is ready
  // in the same cycle.
  for (std::size_t pc = 0; pc < total; ++cycle) {
    // Steady state: an iteration that starts in the state the previous one
    // started in repeats it, and so does every later one, so the remaining
    // whole periods are added instead of stepped.
    if (pc >= next_iteration) {
      next_iteration += body.size();
      const State now = state();
      if (now == mark_state) {
        const std::size_t periods = (total - pc) / body.size();
        const std::uint64_t skipped = periods * (cycle - mark_cycle);
        for (std::uint64_t& r : reg_ready)
          if (r > cycle) r += skipped;
        for (std::uint64_t& u : unit_free)
          if (u > cycle) u += skipped;
        if (global_free > cycle) global_free += skipped;
        stats.idle_cycles += periods * (stats.idle_cycles - mark_idle);
        stats.dual_issue_cycles += periods * (stats.dual_issue_cycles - mark_dual);
        cycle += skipped;
        pc += periods * body.size();
        next_iteration += periods * body.size();
        // A skip that ends the run ends it where the last step would have:
        // at the step boundary, before the next cycle.
        if (pc == total) break;
      }
      mark_state = now;
      mark_cycle = cycle;
      mark_idle = stats.idle_cycles;
      mark_dual = stats.dual_issue_cycles;
    }

    const Instr& head = body[at];
    const std::uint64_t issue_cycle = std::max(cycle, ready_at(head));
    stats.idle_cycles += issue_cycle - cycle;
    cycle = issue_cycle;
    issue(head, cycle);
    advance();
    ++pc;
    const Instr& next = body[at];
    if (pc < total && pipe_of(next.cls) != pipe_of(head.cls) && ready_at(next) <= cycle) {
      issue(next, cycle);
      advance();
      ++pc;
      ++stats.dual_issue_cycles;
    }
  }
  stats.instructions = total;

  // Drain: account the latency of the last value produced so that a single
  // dependent chain reports its full length.
  std::uint64_t last_ready = cycle;
  for (const std::uint64_t r : reg_ready) last_ready = std::max(last_ready, r);
  stats.cycles = last_ready;
  return stats;
}

double SpuPipeline::steady_cycles_per_iteration(std::span<const Instr> body,
                                                int measure_iterations) const {
  RR_EXPECTS(measure_iterations >= 1);
  const int warm = 8;
  const RunStats a = run(body, warm);
  const RunStats b = run(body, warm + measure_iterations);
  return static_cast<double>(b.cycles - a.cycles) / measure_iterations;
}

}  // namespace rr::spu
