// perfbench: the repository benchmark binary.  perfbench/run.py builds it,
// checks the arguments and runs it; see BENCHMARK.json for the workloads
// and metrics.
//
//   perfbench --workload=NAME --seed=N --seconds=N --trace=0|1 --out-dir=PATH
//
// Workloads: des-deep, des-wide, campaign, paper-figures.  The seed
// reseeds the campaign's scenarios; the DES and paper-figure workloads
// are seedless by construction.
//
// Standard output is a human-readable report followed by one JSON object
// as the last line: {"correct", "attempted", "failed", "metrics"}, where
// "metrics" maps each metric the run measured to its value.  With
// --trace=1 the run also writes a Chrome trace of its spans to
// <out-dir>/traces/<workload>.json.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common.hpp"
#include "fault/taxonomy.hpp"
#include "obs/prof.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"

int main(int argc, char** argv) {
  using namespace rr::perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) == 0 && eq != std::string::npos) args[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  Options o;
  o.workload = args["workload"];
  o.trace = args["trace"] == "1";
  o.out_dir = args["out-dir"];
  try {
    o.seed = std::stoull(args["seed"]);
    o.seconds = std::stoi(args["seconds"]);
  } catch (const std::exception&) {
    o.workload.clear();
  }
  if (o.workload.empty() || o.out_dir.empty()) {
    std::cerr << "usage: perfbench --workload=NAME --seed=N --seconds=N --trace=0|1"
                 " --out-dir=PATH (run it through perfbench/run.py)\n";
    return rr::fault::to_int(rr::fault::ExitCode::kUsage);
  }

  std::cout << "perfbench " << o.workload << " seed=" << o.seed << " seconds=" << o.seconds
            << " trace=" << (o.trace ? 1 : 0) << "\n";
  Result r;
  // A wrong closed form would make every count check below meaningless.
  std::ostringstream selftest_log;
  r.check(run_selftests(selftest_log), "self-tests failed:\n" + selftest_log.str());

  rr::sim::TraceRecorder recorder;
  const std::filesystem::path trace_dir = std::filesystem::path(o.out_dir) / "traces";
  if (o.trace) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    rr::obs::WallTrace::global().attach(&recorder, "wall/perfbench");
  }
  try {
    if (o.workload == "campaign")
      run_campaign_workload(o, r);
    else if (o.workload == "paper-figures")
      run_paper_figures(o, r);
    else if (o.workload == "des-deep" || o.workload == "des-wide")
      run_des(o, r);
    else
      r.check(false, "unknown workload " + o.workload);
  } catch (const std::exception& e) {
    r.op(false, std::string("workload threw: ") + e.what());
  }
  if (o.trace) {
    rr::obs::WallTrace::global().attach(nullptr, "");
    const std::filesystem::path path = trace_dir / (o.workload + ".json");
    std::ofstream trace_file(path);
    recorder.write_json(trace_file);
    r.check(static_cast<bool>(trace_file), "cannot write " + path.string());
  }

  // JSON has no NaN: a metric that is not finite is left out, and run.py
  // reads a missing metric as unmeasured.
  rr::Json metrics = rr::Json::object();
  for (const auto& [name, value] : r.metrics) {
    r.check(std::isfinite(value), "metric not finite: " + name);
    if (std::isfinite(value)) metrics.set(name, value);
  }
  r.check(r.attempted > 0, "no operation ran");
  report(std::cout, "fail_frac", fixed(r.fail_frac(), 4),
         std::to_string(r.failed) + " of " + std::to_string(r.attempted) + " operations failed");
  for (const std::string& p : r.problems) std::cout << "  PROBLEM: " << p << "\n";
  if (r.attempted == 0) {  // the result contract needs attempted >= 1
    r.attempted = 1;
    r.failed = 1;
  }
  rr::Json out = rr::Json::object();
  out.set("correct", r.correct)
      .set("attempted", r.attempted)
      .set("failed", r.failed)
      .set("metrics", std::move(metrics));
  std::cout << out.dump() << std::endl;
  return 0;
}
