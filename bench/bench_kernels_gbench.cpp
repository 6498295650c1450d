// Google-benchmark microbenchmarks of the library's real computational
// kernels: the serial Sn sweep solver, the blocked LU, the SPU
// pipeline simulator, the cache simulator, the DES engine, and routing
// over the full fabric.  These measure *this host's* execution of the
// reproduction code (useful for regressions), not Roadrunner timings.
#include <benchmark/benchmark.h>

#include "mem/cache.hpp"
#include "mem/memory_system.hpp"
#include "model/linpack.hpp"
#include "sim/simulator.hpp"
#include "spu/kernels.hpp"
#include "sweep/solver.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"

namespace {

using namespace rr;

void BM_SweepSerial(benchmark::State& state) {
  sweep::Problem p;
  p.nx = p.ny = p.nz = static_cast<int>(state.range(0));
  const std::vector<double> emission(p.cells(), 1.0);
  for (auto _ : state) {
    const auto r = sweep::sweep_once(p, emission);
    benchmark::DoNotOptimize(r.leakage);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(p.cells()) *
                          48);
}
BENCHMARK(BM_SweepSerial)->Arg(8)->Arg(16)->Arg(32);

void BM_LuFactor(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  model::Matrix base;
  base.n = n;
  base.a.resize(static_cast<std::size_t>(n) * n);
  Rng rng(1);
  for (auto& v : base.a) v = rng.uniform(-1.0, 1.0);
  for (int i = 0; i < n; ++i) base.at(i, i) += n;
  for (auto _ : state) {
    model::Matrix m = base;
    const auto piv = model::lu_factor(m, 32);
    benchmark::DoNotOptimize(piv.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      model::lu_flops(n) * state.iterations() * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LuFactor)->Arg(128)->Arg(256);

void BM_SpuPipelineTriad(benchmark::State& state) {
  const spu::SpuPipeline pipe{spu::PipelineSpec::powerxcell_8i()};
  const spu::Program body = spu::make_triad_body(5);
  for (auto _ : state) {
    const auto stats = pipe.run(body, 64);
    benchmark::DoNotOptimize(stats.cycles);
  }
  state.SetItemsProcessed(state.iterations() * 64 * static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_SpuPipelineTriad);

void BM_CachePointerChase(benchmark::State& state) {
  const mem::MemorySystemSpec spec = mem::opteron_memory_system();
  for (auto _ : state) {
    mem::CacheHierarchy h(spec.caches, spec.idle_latency);
    const Duration lat =
        mem::memtime_pointer_chase(h, DataSize::kib(512), spec.line, 10000);
    benchmark::DoNotOptimize(lat.ps());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CachePointerChase);

void BM_DesEngine(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 10000; ++i)
      sim.schedule(Duration::nanoseconds(i % 97), [] {});
    sim.run();
    benchmark::DoNotOptimize(sim.events_run());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_DesEngine);

void BM_TopologyRoute(benchmark::State& state) {
  static const topo::FatTree t = topo::FatTree::roadrunner();
  Rng rng(5);
  for (auto _ : state) {
    const int a = static_cast<int>(rng.next_below(t.node_count()));
    const int b = static_cast<int>(rng.next_below(t.node_count()));
    const auto path = t.route(topo::NodeId{a}, topo::NodeId{b});
    benchmark::DoNotOptimize(path.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopologyRoute);

}  // namespace

BENCHMARK_MAIN();
