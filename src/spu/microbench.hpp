// Reproduction of the paper's SPU microbenchmarks (Section IV.A): for each
// instruction group, measure latency (dependent chain) and repetition
// distance (independent back-to-back issue).  The microbenchmarks are
// generated instruction streams -- the same method the authors used with
// hand-coded assembly -- run against the pipeline timing simulator.
#pragma once

#include <array>
#include <vector>

#include "spu/pipeline.hpp"

namespace rr::spu {

struct GroupMeasurement {
  IClass cls{};
  double latency_cycles = 0.0;
  double repetition_cycles = 0.0;
};

/// Measure one group's latency: a chain of N dependent instructions issues
/// once per `latency` cycles, so the marginal cost per instruction is the
/// latency.  (Assembly-equivalent: each instruction consumes the previous
/// result.)  The N-long chain is a 32-instruction register rotation run
/// N/32 times (N = 256 and 2N).
double measure_latency(const SpuPipeline& pipe, IClass cls);

/// Measure one group's repetition distance: a stream of independent
/// instructions to the same unit issues once per repetition distance.
/// Like the chain, the N-long stream is its 32-instruction rotation run
/// N/32 times.
double measure_repetition(const SpuPipeline& pipe, IClass cls);

/// Run the full Fig. 4 / Fig. 5 sweep over all nine groups.
std::vector<GroupMeasurement> measure_all_groups(const SpuPipeline& pipe);

/// Expected values straight from the spec tables (used to validate that
/// the measurement method recovers the configured hardware parameters).
GroupMeasurement expected_group(const PipelineSpec& spec, IClass cls);

}  // namespace rr::spu
