#include "core/hybrid.hpp"

#include <algorithm>

#include "arch/mapping.hpp"
#include "comm/channel.hpp"
#include "util/expect.hpp"

namespace rr::core {

const char* usage_mode_name(UsageMode mode) {
  switch (mode) {
    case UsageMode::kHostOnly: return "host-only (Opterons)";
    case UsageMode::kAccelerator: return "accelerator (offload per call)";
    case UsageMode::kSpeCentric: return "SPE-centric (data lives on the Cell)";
  }
  return "?";
}

HybridRuntime::HybridRuntime(const RoadrunnerSystem& system, bool best_case_pcie)
    : system_(&system), best_case_pcie_(best_case_pcie) {}

FlopRate HybridRuntime::host_rate(const KernelProfile& kernel) const {
  return system_->spec().node.opteron_peak(arch::Precision::kDouble) *
         kernel.host_efficiency;
}

FlopRate HybridRuntime::cell_rate(const KernelProfile& kernel) const {
  return system_->spec().node.spe_peak(arch::Precision::kDouble) *
         kernel.spe_efficiency;
}

HybridExecution HybridRuntime::run(UsageMode mode, const KernelProfile& kernel,
                                   DataSize data) const {
  RR_EXPECTS(data.b() > 0);
  RR_EXPECTS(kernel.flops_per_byte > 0);

  const double flops = kernel.flops_per_byte * static_cast<double>(data.b());
  const comm::ChannelModel pcie{comm::cell_pcie(best_case_pcie_)};

  HybridExecution e;
  e.mode = mode;
  switch (mode) {
    case UsageMode::kHostOnly: {
      e.compute = Duration::seconds(flops / host_rate(kernel).in_flops());
      e.transfer = Duration::zero();
      e.overhead = Duration::zero();
      break;
    }
    case UsageMode::kAccelerator: {
      // Every Cell of the node is fed by its own PCIe link: the data is
      // striped, crosses down before and up after the kernel.
      const DataSize per_link =
          DataSize::bytes(data.b() / arch::kSpeCentric.sockets_per_node);
      e.compute = Duration::seconds(flops / cell_rate(kernel).in_flops());
      e.transfer = pcie.one_way(per_link) * 2;
      e.overhead = kernel.offload_call_overhead;
      break;
    }
    case UsageMode::kSpeCentric: {
      // Data already resides in Cell memory; only a lightweight
      // coordination message per invocation crosses PCIe.
      e.compute = Duration::seconds(flops / cell_rate(kernel).in_flops());
      e.transfer = Duration::zero();
      e.overhead = pcie.one_way(DataSize::bytes(128));
      break;
    }
  }
  e.total = e.compute + e.transfer + e.overhead;
  e.achieved = FlopRate::flops(flops / e.total.sec());
  return e;
}

DataSize HybridRuntime::accelerator_breakeven(const KernelProfile& kernel) const {
  // Binary search the crossover where accelerator time drops below
  // host-only time (both are monotone in data size).
  const auto faster_on_cell = [&](std::int64_t bytes) {
    const DataSize d = DataSize::bytes(bytes);
    return run(UsageMode::kAccelerator, kernel, d).total <
           run(UsageMode::kHostOnly, kernel, d).total;
  };
  std::int64_t lo = 256, hi = DataSize::gib(16).b();
  if (faster_on_cell(lo)) return DataSize::bytes(lo);
  if (!faster_on_cell(hi)) return DataSize::bytes(hi);
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (faster_on_cell(mid) ? hi : lo) = mid;
  }
  return DataSize::bytes(hi);
}

}  // namespace rr::core
