// bench_des_perf --floor fails closed: a floor file that lacks a gated
// key, or names a key that gates nothing, is a usage error (exit 2)
// reported before any workload runs -- never a gate silently dropped.
// A floor the run misses is a failed gate (exit 1), reported after every
// workload ran and des_perf.json was written, so CI can tell a slow
// engine from a broken invocation.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <string>

#include "util/fileio.hpp"
#include "util/json.hpp"

#include "tmp_dir.hpp"

namespace rr {
namespace {

struct Outcome {
  int exit_code = -1;
  std::string out;
  std::string err;
};

Outcome run_des_perf(const std::string& dir, const std::string& floor) {
  const std::string cmd = std::string(RR_BENCH_DES_PERF) +
                          " --quick --out=" + dir + "/des_perf.json --floor=" +
                          floor + " >" + dir + "/out 2>" + dir + "/err";
  const int status = std::system(cmd.c_str());
  Outcome r;
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  r.out = read_file(dir + "/out");
  r.err = read_file(dir + "/err");
  return r;
}

TEST(DesPerfFloor, MissingGatedKeyExitsTwoBeforeAnyWorkload) {
  const std::string dir = tmp_dir("des_perf_floor_missing");
  const Outcome r =
      run_des_perf(dir, RR_FIXTURE_DIR "/des_perf_floor_no_cml_ping.json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("cml_ping_events_per_sec"), std::string::npos) << r.err;
  EXPECT_EQ(r.out, "");  // not even the banner: no workload ran
}

TEST(DesPerfFloor, KeyThatGatesNothingExitsTwoBeforeAnyWorkload) {
  const std::string dir = tmp_dir("des_perf_floor_unknown");
  const std::string floor = dir + "/floor.json";
  ASSERT_TRUE(write_file_atomic(floor, R"({
    "_note": "every gated key, plus a stale one",
    "schedule_heavy_events_per_sec": 1,
    "cml_ping_events_per_sec": 1,
    "sweep3d_scenarios_per_sec": 1,
    "mailbox_events_per_sec": 1
  })"));
  const Outcome r = run_des_perf(dir, floor);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("mailbox_events_per_sec"), std::string::npos) << r.err;
  EXPECT_EQ(r.out, "");
}

TEST(DesPerfFloor, FloorNoEngineReachesExitsOneAfterWritingResults) {
  const std::string dir = tmp_dir("des_perf_floor_unreachable");
  const Outcome r =
      run_des_perf(dir, RR_FIXTURE_DIR "/des_perf_floor_unreachable.json");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("FLOOR REGRESSION"), std::string::npos) << r.err;
  const Json results = Json::parse(read_file(dir + "/des_perf.json"));
  EXPECT_GT(results.at("cml_ping_events_per_sec").as_double(), 0.0);
}

}  // namespace
}  // namespace rr
