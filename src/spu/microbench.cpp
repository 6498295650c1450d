#include "spu/microbench.hpp"

#include "util/expect.hpp"

namespace rr::spu {

namespace {

// The slope method's N, and the register rotation an N-long program
// repeats: an N-long chain or stream is its 32-instruction rotation run
// N/32 times.
constexpr int kN = 256;
constexpr int kRotation = 32;

/// Dependent chain: instruction i reads the register written by i-1.
/// The chain wraps around 32 registers; the loop-carried dependence makes
/// back-to-back iterations equivalent to one long chain.
Program make_chain(IClass cls) {
  Program p;
  p.reserve(kRotation);
  for (int i = 0; i < kRotation; ++i) p.push_back(op(cls, (i + 1) % kRotation, i));
  return p;
}

/// Independent stream: every instruction reads an always-ready register
/// and writes a register nobody reads soon (32-deep rotation).
Program make_independent(IClass cls) {
  Program p;
  p.reserve(kRotation);
  for (int i = 0; i < kRotation; ++i)
    p.push_back(op(cls, 64 + i, 8));  // r8 is never written: always ready
  return p;
}

/// Slope method: (cycles(2N) - cycles(N)) / N removes fixed overheads,
/// exactly as the paper's assembly microbenchmarks do.
double slope(const SpuPipeline& pipe, const Program& rotation) {
  const auto c_n = pipe.run(rotation, kN / kRotation).cycles;
  const auto c_2n = pipe.run(rotation, 2 * kN / kRotation).cycles;
  return static_cast<double>(c_2n - c_n) / kN;
}

}  // namespace

double measure_latency(const SpuPipeline& pipe, IClass cls) {
  return slope(pipe, make_chain(cls));
}

double measure_repetition(const SpuPipeline& pipe, IClass cls) {
  return slope(pipe, make_independent(cls));
}

std::vector<GroupMeasurement> measure_all_groups(const SpuPipeline& pipe) {
  std::vector<GroupMeasurement> out;
  out.reserve(kNumIClasses);
  for (int i = 0; i < kNumIClasses; ++i) {
    const auto cls = static_cast<IClass>(i);
    GroupMeasurement m;
    m.cls = cls;
    m.latency_cycles = measure_latency(pipe, cls);
    m.repetition_cycles = measure_repetition(pipe, cls);
    out.push_back(m);
  }
  return out;
}

GroupMeasurement expected_group(const PipelineSpec& spec, IClass cls) {
  GroupMeasurement m;
  m.cls = cls;
  // A dependent chain is limited by whichever is longer: result latency or
  // the unit's issue interval.
  m.latency_cycles = spec.of(cls).latency;
  m.repetition_cycles = spec.repetition_distance(cls);
  return m;
}

}  // namespace rr::spu
