// Cross-machine topology-zoo study (no paper figure; DESIGN.md §14):
// runs the Sweep3D / HPL sweep entry points, the Fig. 10 latency sweep
// and the degraded-route audit over every requested zoo machine and
// prints the comparative table.
//
//   --machines=a,b,c   zoo machines to study (default: all of them)
//   --small            reduced presets (tests / CI smoke scale)
//   --report=PATH      emit a run-report JSON (+ Markdown sibling)
//   --golden=PATH      compare the per-machine hop histograms against the
//                      pinned golden (bitwise); RR_REGEN_GOLDEN=1 rewrites
//                      the file instead
//   --replications=N   Monte-Carlo replications (default 120)
//   --iterations=N     timed Sweep3D iterations (default 12)
//   --threads=N        engine workers (default: hardware concurrency)
//
// The exit code gates correctness: every machine's degraded-route audit
// must come back clean (no broken routes, loops, or below-BFS-floor
// paths), efficiencies must stay in (0, 1], and a --golden comparison
// must match.
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/spec.hpp"
#include "obs/report.hpp"
#include "sweep_engine/zoo.hpp"
#include "topo/machines.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

std::vector<std::string> parse_machines(const std::string& arg) {
  std::vector<std::string> names;
  if (arg.empty() || arg == "all") {
    for (const rr::topo::MachineSpec& m : rr::topo::machine_zoo())
      names.push_back(m.name);
    return names;
  }
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    if (!rr::topo::known_machine(item)) {
      std::cerr << "unknown machine: " << item << "\nknown machines:";
      for (const rr::topo::MachineSpec& m : rr::topo::machine_zoo())
        std::cerr << " " << m.name;
      std::cerr << "\n";
      std::exit(2);
    }
    names.push_back(item);
  }
  return names;
}

/// The pinned part of the study: the deterministic routing numbers.
/// Everything here is integer counts plus one exactly-reproducible mean,
/// so the golden comparison is bitwise.
rr::Json golden_doc(const std::vector<rr::engine::MachineStudy>& rows,
                    bool small) {
  rr::Json doc = rr::Json::object();
  doc.set("tolerance", 0.0);
  doc.set("small", small);
  rr::Json arr = rr::Json::array();
  for (const rr::engine::MachineStudy& r : rows) {
    rr::Json o = rr::Json::object();
    o.set("machine", r.machine);
    o.set("nodes", r.nodes);
    rr::Json hist = rr::Json::array();
    for (int c : r.hop_histogram) hist.push_back(c);
    o.set("hop_histogram", std::move(hist));
    o.set("average_hops", r.average_hops);
    arr.push_back(std::move(o));
  }
  doc.set("machines", std::move(arr));
  return doc;
}

bool check_golden(const std::string& path, const rr::Json& computed) {
  const char* regen = std::getenv("RR_REGEN_GOLDEN");
  if (regen != nullptr && *regen != '\0') {
    std::ofstream os(path);
    if (!os.good()) {
      std::cerr << "cannot write golden " << path << "\n";
      return false;
    }
    os << computed.dump(2) << "\n";
    std::cout << "regenerated golden " << path << "\n";
    return os.good();
  }
  std::ifstream is(path);
  if (!is.good()) {
    std::cerr << "missing golden file " << path
              << " (run with RR_REGEN_GOLDEN=1 to create)\n";
    return false;
  }
  std::stringstream buf;
  buf << is.rdbuf();
  const rr::Json expected = rr::Json::parse(buf.str());
  if (expected == computed) {
    std::cout << "golden match: " << path << "\n";
    return true;
  }
  std::cerr << "golden MISMATCH vs " << path << "\ncomputed:\n"
            << computed.dump(2) << "\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv,
                      {"machines", "small", "iterations", "replications",
                       "threads", "golden", "report"});

  const std::vector<std::string> names =
      parse_machines(cli.get("machines", "all"));
  engine::ZooConfig cfg;
  cfg.small = cli.get_bool("small", false);
  cfg.sweep_iterations = cli.get_int("iterations", 12, 1, INT_MAX);
  cfg.fault.replications = cli.get_int("replications", 120, 1, INT_MAX);

  engine::SweepEngine eng({cli.get_int("threads", 0, 0, INT_MAX)});
  const arch::SystemSpec system = arch::make_roadrunner();

  const std::vector<engine::MachineStudy> rows =
      engine::cross_machine_study(eng, system, names, cfg);

  print_banner(std::cout, "Topology zoo: cross-machine comparison (" +
                              std::string(cfg.small ? "small" : "full") +
                              " presets)");
  Table table({"machine", "family", "nodes", "avg hops", "max",
               "lat mean us", "mtbf h", "hpl eff", "sw3d eff", "audit"});
  bool ok = true;
  for (const engine::MachineStudy& r : rows) {
    table.row()
        .add(r.machine)
        .add(r.family)
        .add(r.nodes)
        .add(r.average_hops, 3)
        .add(r.max_hops)
        .add(r.latency_mean_us, 3)
        .add(r.hpl.system_mtbf_h, 1)
        .add(r.hpl.efficiency, 4)
        .add(r.sweep3d.efficiency, 4)
        .add(r.audit_clean ? "clean" : "DIRTY");
    if (!r.audit_clean) ok = false;
    if (!(r.hpl.efficiency > 0.0 && r.hpl.efficiency <= 1.0)) ok = false;
    if (!(r.sweep3d.efficiency > 0.0 && r.sweep3d.efficiency <= 1.0))
      ok = false;
  }
  table.print(std::cout);

  std::cout << "\nhop histograms (from node 0; bin 0 is self):\n";
  for (const engine::MachineStudy& r : rows) {
    std::cout << "  " << r.machine << ":";
    for (std::size_t h = 0; h < r.hop_histogram.size(); ++h)
      std::cout << " " << h << ":" << r.hop_histogram[h];
    std::cout << "\n";
  }

  const std::string golden = cli.get("golden", "");
  if (!golden.empty() && !check_golden(golden, golden_doc(rows, cfg.small)))
    ok = false;

  const std::string report_path = cli.get("report", "");
  if (!report_path.empty()) {
    obs::RunInfo info;
    info.name = "bench_topo_zoo";
    info.threads = eng.threads();
    Json params = Json::object();
    Json machine_names = Json::array();
    for (const std::string& n : names) machine_names.push_back(n);
    params.set("machines", std::move(machine_names));
    params.set("small", cfg.small);
    params.set("iterations", cfg.sweep_iterations);
    params.set("replications", cfg.fault.replications);
    info.params = std::move(params);
    obs::RunReport rep(std::move(info));
    rep.set_extra("machines", engine::zoo_to_json(rows));
    rep.set_extra("all_audits_clean", ok);
    if (!rep.write(report_path)) ok = false;
    std::cout << "\nreport: " << report_path << " and "
              << obs::RunReport::markdown_path_for(report_path) << "\n";
  }

  std::cout << "\n" << (ok ? "PASSED" : "FAILED")
            << ": zoo study over " << rows.size() << " machines\n";
  return ok ? 0 : 1;
}
