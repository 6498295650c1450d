// The Cell Messaging Layer in action (Section V.C): the cluster as "a sea
// of interconnected SPEs".  A small world of SPE ranks runs a halo
// exchange, collectives, and the RPC mechanism Sweep3D used for
// main-memory allocation and input-file reads -- all on simulated time
// with link contention.
//
// Run:  ./cell_messaging [--nodes=2] [--best] [--trace=out.json]
//       (--trace writes a Chrome trace-event JSON of every link transfer;
//        open it at chrome://tracing or ui.perfetto.dev)
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>

#include "topo/fat_tree.hpp"
#include "cml/cml.hpp"
#include "comm/collectives.hpp"
#include "fault/taxonomy.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {"nodes", "best", "trace"});

  topo::FatTreeParams tp;
  tp.cu_count = 1;
  const topo::FatTree topo = topo::FatTree::build(tp);

  cml::CmlConfig config;
  config.nodes = cli.get_int("nodes", 2, 1, topo.node_count());
  config.best_case_pcie = cli.get_bool("best", false);

  sim::Simulator simulator;
  cml::CmlWorld world(simulator, topo, config);
  const int n = world.size();

  sim::TraceRecorder trace;
  const std::string trace_path = cli.get("trace", "");
  if (!trace_path.empty()) world.network().attach_trace(&trace);

  print_banner(std::cout, "CML world: " + std::to_string(n) + " SPE ranks on " +
                              std::to_string(config.nodes) + " node(s)");

  std::vector<double> halo_sum(n, 0.0);
  std::vector<double> reduced;
  double barrier_done_us = 0.0;
  double rpc_result = 0.0;

  const std::size_t finished = world.run([&](cml::CmlContext ctx) -> sim::Task<void> {
    const int r = ctx.rank();

    // 1. Ring halo exchange: send my rank to the right, receive from the
    //    left, three times around.
    double acc = 0.0;
    for (int round = 0; round < 3; ++round) {
      std::vector<double> payload(1, static_cast<double>(r));
      co_await ctx.send((r + 1) % ctx.size(), 100 + round, std::move(payload));
      const cml::Message m =
          co_await ctx.recv((r - 1 + ctx.size()) % ctx.size(), 100 + round);
      acc += m.payload[0];
    }
    halo_sum[r] = acc;

    // 2. Barrier, then a global allreduce of rank ids.
    co_await ctx.barrier();
    if (r == 0) barrier_done_us = ctx.size() > 0 ? 0.0 : 0.0;
    std::vector<double> contrib(1, static_cast<double>(r));
    const auto sum = co_await ctx.allreduce_sum(std::move(contrib));
    if (r == 0) reduced = sum;

    // 3. RPC: rank 0 asks its Opteron to "read the input file" (Sweep3D's
    //    pattern -- the parallel filesystem is not visible to the PPEs).
    if (r == 0) {
      const auto input = co_await ctx.rpc_opteron(
          [] { return std::vector<double>{5, 5, 400, 20, 6}; },
          Duration::microseconds(50));
      rpc_result = std::accumulate(input.begin(), input.end(), 0.0);
      barrier_done_us = 0.0;  // silence unused warning path
    }
    co_return;
  });

  Table t({"check", "value"});
  t.row().add("ranks finished (no deadlock)").add(
      std::to_string(finished) + " / " + std::to_string(n));
  t.row().add("halo sum at rank 0 (3 rounds from left neighbor)").add(halo_sum[0], 1);
  t.row().add("allreduce of rank ids").add(reduced.empty() ? -1.0 : reduced[0], 1);
  t.row().add("expected").add(n * (n - 1) / 2.0, 1);
  t.row().add("input file via Opteron RPC (sum of dims)").add(rpc_result, 1);
  t.row().add("simulated time for all of it").add(
      format_double(simulator.now().us(), 1) + " us");
  t.print(std::cout);

  print_banner(std::cout, "Collective model vs this stack");
  const auto legs = comm::CollectiveLegs::roadrunner(DataSize::bytes(40),
                                                     config.best_case_pcie);
  Table c({"collective", "analytic model (us)"});
  c.row().add("barrier (" + std::to_string(n) + " ranks)").add(
      comm::barrier_time(n, legs).us(), 1);
  c.row().add("broadcast").add(comm::broadcast_time(n, legs).us(), 1);
  c.row().add("allreduce").add(comm::allreduce_time(n, legs).us(), 1);
  c.print(std::cout);

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    trace.write_json(out);
    out.close();
    if (!out) {
      std::cerr << "cell_messaging: cannot write trace " << trace_path << ": "
                << std::strerror(errno) << "\n";
      return fault::to_int(fault::ExitCode::kError);
    }
    std::cout << "\nwrote " << trace.size() << " trace events to " << trace_path
              << " (open at chrome://tracing)\n";
  }

  std::cout << "\nRe-run with --best for the mature-software PCIe stack.\n";
  return 0;
}
