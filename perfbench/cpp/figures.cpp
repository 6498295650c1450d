// paper-figures: recompute in-process every row EXPERIMENTS.md lists with
// a numeric paper value -- Tables I-IV, Figs. 3-10 and 12-14, the Section
// IV.A speedups and LINPACK/HPL -- through the public functions the
// bench_table*/bench_fig*/bench_apps_speedup/bench_hpl_walk mains call,
// with the sweep engine pinned to 3 threads (4 with the caller).
//
// One pass recomputes every row.  Rows the paper states exactly (Table I
// counts and hops, Table II peaks and counts, Fig. 3, Figs. 4-5) must
// match at the paper's digits; every row must be finite and repeat
// bit-identically.  The traced run alternates untraced passes with passes
// that time each table or figure in a span named for the layer that
// computes it.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "arch/power.hpp"
#include "arch/spec.hpp"
#include "comm/channel.hpp"
#include "comm/fabric.hpp"
#include "comm/path.hpp"
#include "common.hpp"
#include "core/roadrunner.hpp"
#include "mem/memory_system.hpp"
#include "model/apps.hpp"
#include "model/hpl_sim.hpp"
#include "model/sweep_model.hpp"
#include "obs/prof.hpp"
#include "spu/kernels.hpp"
#include "spu/microbench.hpp"
#include "spu/pipeline.hpp"
#include "sweep_engine/context.hpp"
#include "sweep_engine/studies.hpp"
#include "topo/fat_tree.hpp"
#include "util/stats.hpp"

namespace rr::perfbench {
namespace {

using arch::Precision;

struct Row {
  std::string name;
  double paper = 0.0;
  double model = 0.0;
  int exact_digits = -1;  ///< >= 0: the paper states it exactly to these decimals
};
using Rows = std::vector<Row>;

struct Context {
  const core::RoadrunnerSystem& rr;
  const topo::FatTree& tree;
  engine::SweepEngine& eng;
};

void table1(const Context& c, Rows& rows) {
  const topo::FatTree& t = c.tree;
  const topo::NodeId src{0};
  const topo::Attachment& a0 = t.attachment(src);
  int counts[7] = {};
  std::int64_t hop_total = 0;
  for (int d = 0; d < t.node_count(); ++d) {
    const topo::Attachment& att = t.attachment(topo::NodeId{d});
    hop_total += t.hop_count(src, topo::NodeId{d});
    int cls = 6;
    if (d == src.v) cls = 0;
    else if (att.cu == a0.cu && att.lower_xbar == a0.lower_xbar) cls = 1;
    else if (att.cu == a0.cu) cls = 2;
    else if (att.cu < 12 && att.lower_xbar == a0.lower_xbar) cls = 3;
    else if (att.cu < 12) cls = 4;
    else if (att.lower_xbar == a0.lower_xbar) cls = 5;
    ++counts[cls];
  }
  struct Class {
    const char* name;
    int paper_count;
    int paper_hops;
    int probe;  ///< a destination in the class
  };
  static constexpr Class kClasses[] = {
      {"self", 1, 0, 0},
      {"same crossbar", 7, 1, 1},
      {"same CU", 172, 3, 100},
      {"CUs 2-12, same crossbar", 88, 3, 180},
      {"CUs 2-12, different crossbar", 1892, 5, 280},
      {"CUs 13-17, same crossbar", 40, 5, 2340},
      {"CUs 13-17, different crossbar", 860, 7, 2440}};
  for (int i = 0; i < 7; ++i) {
    const Class& k = kClasses[i];
    rows.push_back({std::string("Table I count, ") + k.name, double(k.paper_count),
                    double(counts[i]), 0});
    rows.push_back({std::string("Table I hops, ") + k.name, double(k.paper_hops),
                    double(t.hop_count(src, topo::NodeId{k.probe})), 0});
  }
  rows.push_back({"Table I average hops", 5.38,
                  static_cast<double>(hop_total) / t.node_count(), 2});
}

void table2(const Context& c, Rows& rows) {
  const arch::SystemSpec& s = c.rr.spec();
  rows.push_back({"Table II CU count", 17, double(s.cu_count), 0});
  rows.push_back({"Table II node count", 3060, double(s.node_count()), 0});
  rows.push_back({"Table II CU node count", 180, double(s.nodes_per_cu), 0});
  rows.push_back({"Table II system peak DP (Pflop/s)", 1.38,
                  s.system_peak(Precision::kDouble).in_pflops(), 2});
  rows.push_back({"Table II system peak SP (Pflop/s)", 2.91,
                  s.system_peak(Precision::kSingle).in_pflops(), 2});
  rows.push_back({"Table II CU peak DP (Tflop/s)", 80.9,
                  s.cu_peak(Precision::kDouble).in_tflops(), 1});
  rows.push_back({"Table II CU peak SP (Tflop/s)", 171.1,
                  s.cu_peak(Precision::kSingle).in_tflops(), 1});
  rows.push_back({"Table II node Opteron peak DP (Gflop/s)", 14.4,
                  s.node.opteron_peak(Precision::kDouble).in_gflops(), 1});
  rows.push_back({"Table II node Opteron peak SP (Gflop/s)", 28.8,
                  s.node.opteron_peak(Precision::kSingle).in_gflops(), 1});
  rows.push_back({"Table II node Cell peak DP (Gflop/s)", 435.2,
                  s.node.cell_peak(Precision::kDouble).in_gflops(), 1});
  rows.push_back({"Table II node Cell peak SP (Gflop/s)", 921.6,
                  s.node.cell_peak(Precision::kSingle).in_gflops(), 1});
  rows.push_back({"Table II Opteron cores per node", 4, double(s.node.opteron_cores()), 0});
  rows.push_back({"Table II Cells per node", 4, double(s.node.cell_processors()), 0});
  rows.push_back({"Cell share of peak (%)", 95,
                  100 * s.cell_peak_fraction(Precision::kDouble)});
  const arch::PowerReport pw = c.rr.power();
  rows.push_back({"Green500 (Mflops/W)", 437, pw.linpack_mflops_per_watt});
  rows.push_back({"Cell-only systems (Mflops/W)", 488, pw.cell_only_mflops_per_watt});
  rows.push_back({"Opteron-only peak (Tflop/s)", 44,
                  s.node.opteron_peak(Precision::kDouble).in_tflops() * s.node_count()});
}

void table3(const Context&, Rows& rows) {
  const mem::MemoryModel opteron(mem::opteron_memory_system());
  const mem::MemoryModel ppe(mem::ppe_memory_system());
  rows.push_back({"Table III Opteron TRIAD (GB/s)", 5.41,
                  opteron.streams_triad_reported().gbps()});
  rows.push_back({"Table III Opteron latency (ns)", 30.5,
                  opteron.memtime_latency(DataSize::mib(64)).ns()});
  rows.push_back({"Table III PPE TRIAD (GB/s)", 0.89, ppe.streams_triad_reported().gbps()});
  rows.push_back({"Table III PPE latency (ns)", 23.4,
                  ppe.memtime_latency(DataSize::mib(64)).ns()});
  rows.push_back({"Table III SPE TRIAD (GB/s)", 29.28, mem::spe_local_store_triad().gbps()});
  rows.push_back({"Table III SPE latency (ns)", 9.4, mem::spe_local_store_memtime().ns()});
}

void table4(const Context&, Rows& rows) {
  const model::TableIvResult r = model::table_iv();
  rows.push_back({"Table IV previous, Cell BE (s)", 1.3, r.prev_cbe_s});
  rows.push_back({"Table IV ours, Cell BE (s)", 0.37, r.ours_cbe_s});
  rows.push_back({"Table IV ours, PowerXCell 8i (s)", 0.19, r.ours_pxc_s});
  rows.push_back({"Table IV PowerXCell 8i vs Cell BE", 1.9, r.ours_cbe_s / r.ours_pxc_s});
  rows.push_back({"Table IV ours vs previous", 3.5, r.prev_cbe_s / r.ours_cbe_s});
  const spu::SpuPipeline pxc{spu::PipelineSpec::powerxcell_8i()};
  const spu::SpuPipeline cbe{spu::PipelineSpec::cell_be()};
  rows.push_back({"SPE DP peak ratio", 7.0,
                  spu::fma_peak_rate(pxc, spu::IClass::kFPD) /
                      spu::fma_peak_rate(cbe, spu::IClass::kFPD)});
}

void fig03(const Context&, Rows& rows) {
  const arch::TribladeSpec node = arch::make_triblade();
  const double gib = 1024.0 * 1024.0 * 1024.0;
  const double mib = 1024.0 * 1024.0;
  rows.push_back({"Fig. 3 SPEs DP (Gflop/s)", 409.6,
                  node.spe_peak(Precision::kDouble).in_gflops(), 1});
  rows.push_back({"Fig. 3 PPEs DP (Gflop/s)", 25.6,
                  node.ppe_peak(Precision::kDouble).in_gflops(), 1});
  rows.push_back({"Fig. 3 Opterons DP (Gflop/s)", 14.4,
                  node.opteron_peak(Precision::kDouble).in_gflops(), 1});
  rows.push_back({"Fig. 3 node DP (Gflop/s)", 449.6, node.peak(Precision::kDouble).in_gflops(),
                  1});
  rows.push_back({"Fig. 3 Cell off-chip (GiB)", 16,
                  static_cast<double>(node.cell_memory().b()) / gib, 0});
  rows.push_back({"Fig. 3 Opteron off-chip (GiB)", 16,
                  static_cast<double>(node.opteron_memory().b()) / gib, 0});
  rows.push_back({"Fig. 3 Cell on-chip (MiB)", 10.25,
                  static_cast<double>(node.cell_on_chip().b()) / mib, 2});
  rows.push_back({"Fig. 3 Opteron on-chip (MiB)", 8.5,
                  static_cast<double>(node.opteron_on_chip().b()) / mib, 1});
}

void fig04_05(const Context&, Rows& rows) {
  const spu::SpuPipeline cbe{spu::PipelineSpec::cell_be()};
  const spu::SpuPipeline pxc{spu::PipelineSpec::powerxcell_8i()};
  const auto m_cbe = spu::measure_all_groups(cbe);
  const auto m_pxc = spu::measure_all_groups(pxc);
  // Figs. 4-5, groups in spu::IClass order: BR FP6 FP7 FPD FX2 FX3 FXB LS SHUF.
  static constexpr int kLatencyCbe[] = {4, 6, 7, 13, 2, 3, 4, 6, 4};
  static constexpr int kLatencyPxc[] = {4, 6, 7, 9, 2, 3, 4, 6, 4};
  const auto fpd = static_cast<std::size_t>(spu::IClass::kFPD);
  for (std::size_t i = 0; i < m_cbe.size() && i < m_pxc.size(); ++i) {
    const std::string group(spu::kIClassNames[i]);
    rows.push_back({"Fig. 4 latency, Cell BE " + group, double(kLatencyCbe[i]),
                    m_cbe[i].latency_cycles, 0});
    rows.push_back({"Fig. 4 latency, PowerXCell 8i " + group, double(kLatencyPxc[i]),
                    m_pxc[i].latency_cycles, 0});
    rows.push_back({"Fig. 5 repetition, Cell BE " + group, i == fpd ? 7.0 : 1.0,
                    m_cbe[i].repetition_cycles, 0});
    rows.push_back({"Fig. 5 repetition, PowerXCell 8i " + group, 1.0,
                    m_pxc[i].repetition_cycles, 0});
  }
  rows.push_back({"8-SPE DP peak, Cell BE (Gflop/s)", 14.6,
                  spu::fma_peak_rate(cbe, spu::IClass::kFPD).in_gflops() * 8, 1});
  rows.push_back({"8-SPE DP peak, PowerXCell 8i (Gflop/s)", 102.4,
                  spu::fma_peak_rate(pxc, spu::IClass::kFPD).in_gflops() * 8, 1});
}

void fig06(const Context&, Rows& rows) {
  static constexpr double kPaperLegs[] = {0.12, 3.19, 2.16, 3.19, 0.12};
  const auto legs = comm::cell_to_cell_internode().latency_breakdown();
  double total = 0.0;
  for (std::size_t i = 0; i < legs.size() && i < 5; ++i) {
    rows.push_back({"Fig. 6 " + legs[i].first + " (us)", kPaperLegs[i], legs[i].second.us()});
    total += legs[i].second.us();
  }
  rows.push_back({"Fig. 6 total (us)", 8.78, legs.size() == 5 ? total : 0.0});
}

void fig07(const Context&, Rows& rows) {
  const comm::PathModel intra = comm::ppe_opteron_intranode();
  const comm::PathModel inter = comm::cell_to_cell_allpairs();
  const DataSize mb = DataSize::bytes(1'000'000);
  const double intra_bidir = intra.bidir_bandwidth_sum(mb).mbps();
  const double intra_uni = intra.uni_bandwidth(mb).mbps();
  const double inter_bidir = inter.bidir_bandwidth_sum(mb).mbps();
  const double inter_uni = inter.uni_bandwidth(mb).mbps();
  rows.push_back({"Fig. 7 intranode bidirectional (MB/s)", 1295, intra_bidir});
  rows.push_back({"Fig. 7 intranode unidirectional x2 (MB/s)", 2017, intra_uni * 2});
  rows.push_back({"Fig. 7 internode bidirectional (MB/s)", 375, inter_bidir});
  rows.push_back({"Fig. 7 internode unidirectional x2 (MB/s)", 536, inter_uni * 2});
  rows.push_back({"Fig. 7 intranode duplex efficiency (%)", 64,
                  100 * intra_bidir / (2 * intra_uni)});
  rows.push_back({"Fig. 7 internode duplex efficiency (%)", 70,
                  100 * inter_bidir / (2 * inter_uni)});
}

void fig08(const Context&, Rows& rows) {
  const DataSize big = DataSize::mib(8);
  rows.push_back({"Fig. 8 cores 1/3 plateau (MB/s)", 1478,
                  comm::opteron_mpi_internode(true, true).uni_bandwidth(big).mbps()});
  rows.push_back({"Fig. 8 cores 0/2 plateau (MB/s)", 1087,
                  comm::opteron_mpi_internode(false, false).uni_bandwidth(big).mbps()});
}

void fig09(const Context&, Rows& rows) {
  const comm::ChannelModel dacs{comm::dacs_pcie()};
  const comm::ChannelModel ib{comm::with_hops(comm::mpi_infiniband_default_params(), 3)};
  const DataSize mb = DataSize::bytes(1'000'000);
  rows.push_back({"Fig. 9 IB/DaCS bandwidth ratio at 1 MB", 1.0,
                  ib.uni_bandwidth(mb).mbps() / dacs.uni_bandwidth(mb).mbps()});
}

void fig10(const Context& c, Rows& rows) {
  const comm::FabricModel& fabric = c.rr.fabric();
  const auto sweep = engine::parallel_latency_sweep(c.eng, fabric, topo::NodeId{0});
  std::map<int, std::pair<double, int>> by_hops;  // hops -> (sum us, count)
  for (const auto& pt : sweep) {
    by_hops[pt.hops].first += pt.latency.us();
    ++by_hops[pt.hops].second;
  }
  const auto mean_us = [&](int hops) {
    const auto it = by_hops.find(hops);
    return it == by_hops.end() ? std::nan("") : it->second.first / it->second.second;
  };
  rows.push_back({"Fig. 10 1-hop plateau (us)", 2.5, mean_us(1)});
  rows.push_back({"Fig. 10 3-hop plateau (us)", 3.0, mean_us(3)});
  rows.push_back({"Fig. 10 5-hop plateau (us)", 3.5, mean_us(5)});
  rows.push_back({"Fig. 10 7-hop plateau, 'just under 4' (us)", 4.0, mean_us(7)});
  const DataSize mb = DataSize::bytes(1'000'000);
  rows.push_back({"Fig. 10 1 MB default OpenMPI (MB/s)", 980,
                  fabric.average_bandwidth(topo::NodeId{0}, mb, false).mbps()});
  rows.push_back({"Fig. 10 1 MB pinned buffers (GB/s)", 1.6,
                  fabric.average_bandwidth(topo::NodeId{0}, mb, true).gbps()});
}

void fig12(const Context&, Rows& rows) {
  // Rows: PowerXCell 8i, dual Opteron 1.8, quad Opteron 2.0, quad Tigerton.
  // The single-core "comparable" relations carry no number and are left out.
  const auto f = model::figure12_rows();
  rows.push_back({"Fig. 12 SPE socket vs quad Opteron socket", 2.0,
                  f.size() > 2 ? f[2].spe_socket_advantage : std::nan("")});
  rows.push_back({"Fig. 12 SPE socket vs quad Tigerton socket", 2.0,
                  f.size() > 3 ? f[3].spe_socket_advantage : std::nan("")});
  rows.push_back({"Fig. 12 SPE socket vs dual Opteron socket, 'almost 5x'", 5.0,
                  f.size() > 1 ? f[1].spe_socket_advantage : std::nan("")});
}

void fig13_14(const Context& c, Rows& rows) {
  const auto series = engine::parallel_scale_series(c.eng, model::paper_node_counts());
  const model::ScalePoint last = series.empty() ? model::ScalePoint{} : series.back();
  rows.push_back({"Fig. 13 Opteron-only iteration at 3,060 nodes (s)", 0.7, last.opteron_s});
  rows.push_back({"Fig. 14 measured improvement at 3,060 nodes", 2.0,
                  last.improvement_measured()});
  rows.push_back({"Fig. 14 best improvement at 3,060 nodes", 4.0, last.improvement_best()});
  rows.push_back({"Fig. 13 measured vs best gap at 3,060 nodes", 2.0,
                  last.cell_measured_s / last.cell_best_s});
}

void apps(const Context&, Rows& rows) {
  const spu::SpuPipeline pxc{spu::PipelineSpec::powerxcell_8i()};
  const spu::SpuPipeline cbe{spu::PipelineSpec::cell_be()};
  for (const auto& k : model::all_app_kernels())
    rows.push_back({"Section IV.A speedup, " + k.name, k.paper_speedup,
                    cbe.steady_cycles_per_iteration(k.inner_loop) /
                        pxc.steady_cycles_per_iteration(k.inner_loop)});
}

void hpl(const Context& c, Rows& rows) {
  const model::LinpackProjection lp = c.rr.linpack();
  rows.push_back({"LINPACK closed form (Pflop/s)", 1.026, lp.sustained.in_pflops()});
  rows.push_back({"LINPACK closed form efficiency (%)", 74.6, 100 * lp.efficiency});
  const model::HplSimResult walk = model::simulate_hpl(c.rr.spec());
  rows.push_back({"HPL walk (Pflop/s)", 1.026, walk.sustained.in_pflops()});
  rows.push_back({"HPL walk efficiency (%)", 74.6, 100 * walk.efficiency});
  rows.push_back({"HPL walk run time (h)", 2.0, walk.total.sec() / 3600.0});
}

struct Figure {
  const char* span;  ///< per-layer metric: "<layer>.<figure>_s"
  void (*compute)(const Context&, Rows&);
};

const Figure kFigures[] = {
    {"topo.table1_s", table1},   {"arch.table2_s", table2},     {"mem.table3_s", table3},
    {"model.table4_s", table4},  {"arch.fig03_s", fig03},       {"spu.fig04_05_s", fig04_05},
    {"comm.fig06_s", fig06},     {"comm.fig07_s", fig07},       {"comm.fig08_s", fig08},
    {"comm.fig09_s", fig09},     {"comm.fig10_s", fig10},       {"model.fig12_s", fig12},
    {"model.fig13_14_s", fig13_14}, {"spu.apps_s", apps},       {"model.hpl_s", hpl},
};

std::string layer_of(const char* span) {
  const std::string s(span);
  return s.substr(0, s.find('.'));
}

struct LayerRows {
  std::string layer;
  Rows rows;
};

/// One pass over every paper row.  `span_s`, when given, receives each
/// figure's host seconds from a ProfSpan (the traced passes).
std::vector<LayerRows> run_pass(const Context& c,
                                std::map<std::string, std::vector<double>>* span_s) {
  std::vector<LayerRows> out;
  for (const Figure& f : kFigures) {
    LayerRows lr{layer_of(f.span), {}};
    if (span_s != nullptr) {
      obs::ProfSpan span(f.span);
      f.compute(c, lr.rows);
      (*span_s)[f.span].push_back(span.stop() * 1e-6);
    } else {
      f.compute(c, lr.rows);
    }
    out.push_back(std::move(lr));
  }
  return out;
}

}  // namespace

void run_paper_figures(const Options& o, Result& r) {
  // parallel_scale_series reads the process-wide SharedContext; it is
  // built once per process, before the timed set-ups.
  const double shared_context_s = [] {
    const double t0 = wall_s();
    engine::SharedContext::instance();
    return wall_s() - t0;
  }();

  // Set-up: the machine facade -- spec, 17-CU fat tree and fabric model.
  HostSpeed speed;
  const core::RoadrunnerSystem machine = core::RoadrunnerSystem::full();
  std::optional<core::RoadrunnerSystem> scratch;
  SetupClock setup(speed, [&] {
    scratch.reset();  // free the last build first: every repetition allocates alike
    scratch.emplace(core::RoadrunnerSystem::full());
  });
  setup.tick();
  const auto* tree = dynamic_cast<const topo::FatTree*>(&machine.topology());
  r.check(tree != nullptr, "RoadrunnerSystem::full() is not a fat tree");
  if (tree == nullptr) return;
  engine::SweepEngine eng(engine::EngineConfig{3});
  const Context ctx{machine, *tree, eng};

  std::optional<std::vector<LayerRows>> first;
  std::vector<double> pass_s, scaled_s, traced_s;
  std::map<std::string, std::vector<double>> span_s;
  // One checked pass: every row finite, exact rows at the paper's digits,
  // and every value bit-identical to the first pass.
  const auto pass = [&](bool traced) {
    const double t0 = wall_s();
    std::vector<LayerRows> rows;
    try {
      rows = run_pass(ctx, traced ? &span_s : nullptr);
    } catch (const std::exception& e) {
      r.op(false, std::string("paper-figure pass threw: ") + e.what());
      return false;
    }
    const double raw = wall_s() - t0;
    const double scaled = speed.scale(raw);
    if (traced) {
      traced_s.push_back(raw);
    } else {
      pass_s.push_back(raw);
      scaled_s.push_back(scaled);
    }
    setup.tick();
    std::string bad;
    for (const LayerRows& lr : rows)
      for (const Row& row : lr.rows)
        if (!std::isfinite(row.model) ||
            (row.exact_digits >= 0 && !matches_to_digits(row.model, row.paper, row.exact_digits)))
          bad += " [" + row.name + ": model " + fixed(row.model, 4) + ", paper " +
                 fixed(row.paper, 4) + "]";
    if (first) {
      bool same = first->size() == rows.size();
      for (std::size_t f = 0; same && f < rows.size(); ++f) {
        same = (*first)[f].rows.size() == rows[f].rows.size();
        for (std::size_t k = 0; same && k < rows[f].rows.size(); ++k)
          same = rows[f].rows[k].model == (*first)[f].rows[k].model;
      }
      if (!same) bad += " [rows changed between passes]";
    }
    r.op(bad.empty(), "paper rows failed:" + bad);
    if (!first) first = std::move(rows);
    return true;
  };

  bool traced = false;
  for (RunClock clock(o.seconds); clock.more() || (o.trace && traced_s.empty());) {
    if (!pass(traced)) break;
    if (o.trace) traced = !traced;
  }
  if (!first) return;

  // Paper error over rows with a nonzero paper value, overall and per layer.
  double err_sum = 0.0, err_max = 0.0;
  std::size_t rows_n = 0, exact_n = 0;
  std::map<std::string, double> layer_max;
  std::string worst;
  for (const LayerRows& lr : *first)
    for (const Row& row : lr.rows) {
      if (row.exact_digits >= 0) ++exact_n;
      if (row.paper == 0.0) continue;
      const double e = relative_error(row.model, row.paper);
      err_sum += e;
      ++rows_n;
      if (e > err_max) {
        err_max = e;
        worst = row.name;
      }
      layer_max[lr.layer] = std::max(layer_max[lr.layer], e);
    }
  const double err_mean = rows_n ? err_sum / static_cast<double>(rows_n) : 0.0;

  std::cout << "  " << rows_n << " rows with a nonzero paper value (" << exact_n
            << " stated exactly), " << std::size(kFigures) << " tables and figures\n";
  if (!o.trace) {
    const Timing t = summarize(scaled_s);
    r.metrics["setup_s"] = setup.median_s();
    r.metrics["job_s"] = t.median;
    r.metrics["peak_rss_mb"] = peak_rss_mb();
    r.metrics["model_err"] = err_mean;
    r.metrics["model_err_max"] = err_max;
    report(std::cout, "setup_s", fixed(setup.median_s(), 6) + " s",
           "median set-up at nominal host speed: RoadrunnerSystem::full(); the shared "
           "context took " + fixed(shared_context_s, 4) + " s once");
    report(std::cout, "figures_s", describe(t, "s"),
           "all rows at nominal host speed, reported as job_s");
    report(std::cout, "figures_s (raw)", describe(summarize(pass_s), "s"),
           "host slowdown median " + fixed(median(speed.slowdowns()), 3));
    report(std::cout, "peak_rss_mb", fixed(r.metrics["peak_rss_mb"], 1) + " MB");
    report(std::cout, "paper_err_mean", fixed(err_mean, 4) + " ratio", "model_err");
    report(std::cout, "paper_err_max", fixed(err_max, 4) + " ratio",
           "model_err_max; worst row: " + worst);
    return;
  }
  for (const Figure& f : kFigures) r.metrics[f.span] = median(span_s[f.span]);
  for (const auto& [layer, e] : layer_max) r.metrics[layer + ".paper_err_max"] = e;
  r.metrics["trace.job_s"] = median(traced_s);
  r.metrics["trace.overhead_s"] = median(traced_s) - median(pass_s);
  r.metrics["host.slowdown"] = median(speed.slowdowns());
  report(std::cout, "figures_s (untraced)", describe(summarize(pass_s), "s"));
  report(std::cout, "figures_s (traced)", describe(summarize(traced_s), "s"),
         "overhead " + fixed(r.metrics["trace.overhead_s"], 6) + " s");
  for (const Figure& f : kFigures)
    report(std::cout, f.span, fixed(r.metrics[f.span] * 1e3, 3) + " ms");
  for (const auto& [layer, e] : layer_max)
    report(std::cout, layer + ".paper_err_max", fixed(e, 4) + " ratio");
}

}  // namespace rr::perfbench
