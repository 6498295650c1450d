// Contract tests for the sharded campaign service (DESIGN.md §11): the
// frame protocol, the coordinator/worker fleet (sharding, work-stealing,
// crash respawn), and the content-addressed result cache.  The invariant
// under test throughout is byte-identity: the merged cross-shard result
// of any fleet shape -- including one with a worker killed mid-shard --
// equals the single-process bytes, and a cache hit serves the populating
// run's bytes verbatim.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/protocol.hpp"
#include "campaign/service.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "util/fileio.hpp"
#include "util/flightrec.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_THREAD__)
#define RR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RR_TSAN 1
#endif
#endif

namespace rr {
namespace {

std::string tmp_dir(const std::string& stem) {
  const std::string dir =
      ::testing::TempDir() + stem + "." + std::to_string(::getpid());
  make_dirs(dir);
  return dir;
}

Json campaign_params(const std::string& salt) {
  Json p = Json::object();
  p.set("study", Json("campaign-unit"));
  p.set("salt", Json(salt));
  return p;
}

// Deterministic toy metrics with non-terminating binary fractions so
// byte-identity through the %.17g round trip actually bites.
Json scenario_metrics(int i) {
  Rng rng(engine::scenario_seed(0xc0ffeeULL, static_cast<std::uint64_t>(i)));
  Json o = Json::object();
  o.set("x", Json(rng.next_double() / 3.0));
  o.set("y", Json(rng.next_double() * 1e-7));
  return o;
}

engine::ResilientScenario plain_fn() {
  return [](int i, const engine::CancelToken&) { return scenario_metrics(i); };
}

campaign::CampaignSpec make_spec(const std::string& salt, int scenarios) {
  campaign::CampaignSpec spec;
  spec.name = "campaign_test";
  spec.params = campaign_params(salt);
  spec.scenarios = scenarios;
  spec.base_seed = 0xc0ffeeULL;
  return spec;
}

/// The single-process reference bytes for a spec (no journal on disk).
std::string reference_bytes(const campaign::CampaignSpec& spec,
                            const engine::ResilientScenario& fn) {
  engine::SweepEngine eng({1});
  engine::ResilientConfig rcfg;
  rcfg.base_seed = spec.base_seed;
  const auto report =
      engine::run_resilient(eng, spec.scenarios, fn, nullptr, rcfg);
  std::ostringstream os;
  engine::write_entries_jsonl(report.entries, os);
  return os.str();
}

std::uint64_t hit_count() {
  return obs::MetricsRegistry::global().counter("campaign.cache.hit").value();
}

// ---------------------------------------------------------------------------
// Protocol plumbing
// ---------------------------------------------------------------------------

TEST(CampaignProtocol, FramesRoundTripAcrossAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  Json msg = Json::object();
  msg.set("t", "run").set(
      "ranges", campaign::ranges_to_json({{0, 4}, {9, 12}}));
  ASSERT_TRUE(campaign::write_frame(fds[1], msg));
  Json second = Json::object();
  second.set("t", "stop");
  ASSERT_TRUE(campaign::write_frame(fds[1], second));
  ::close(fds[1]);

  const auto got = campaign::read_frame(fds[0]);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->at("t").as_string(), "run");
  const auto ranges = campaign::ranges_from_json(got->at("ranges"));
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (campaign::IndexRange{0, 4}));
  EXPECT_EQ(campaign::range_count(ranges), 7);
  const auto next = campaign::read_frame(fds[0]);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->at("t").as_string(), "stop");
  EXPECT_FALSE(campaign::read_frame(fds[0]).has_value());  // clean EOF
  ::close(fds[0]);
}

TEST(CampaignProtocol, TruncatedFrameAndOversizeLengthThrow) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const char torn[] = {0, 0, 0, 9, '{', '"'};  // promises 9, delivers 2
  ASSERT_EQ(::write(fds[1], torn, sizeof torn),
            static_cast<ssize_t>(sizeof torn));
  ::close(fds[1]);
  EXPECT_THROW(campaign::read_frame(fds[0]), std::runtime_error);
  ::close(fds[0]);

  ASSERT_EQ(::pipe(fds), 0);
  const unsigned char huge[] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(fds[1], huge, sizeof huge),
            static_cast<ssize_t>(sizeof huge));
  ::close(fds[1]);
  EXPECT_THROW(campaign::read_frame(fds[0]), std::runtime_error);
  ::close(fds[0]);
}

namespace {

/// Push raw bytes through a pipe and read them back as one frame.
/// Returns the frame, or rethrows read_frame's rejection.
std::optional<Json> frame_from_bytes(const std::string& bytes) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  EXPECT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  try {
    const auto msg = campaign::read_frame(fds[0]);
    ::close(fds[0]);
    return msg;
  } catch (...) {
    ::close(fds[0]);
    throw;
  }
}

/// 4-byte big-endian length prefix + payload.
std::string framed(std::string_view payload, std::uint32_t claim) {
  std::string out;
  out.push_back(static_cast<char>((claim >> 24) & 0xff));
  out.push_back(static_cast<char>((claim >> 16) & 0xff));
  out.push_back(static_cast<char>((claim >> 8) & 0xff));
  out.push_back(static_cast<char>(claim & 0xff));
  out.append(payload);
  return out;
}

std::string framed(std::string_view payload) {
  return framed(payload, static_cast<std::uint32_t>(payload.size()));
}

}  // namespace

// Hostile-input defenses (DESIGN.md §13): every malformed frame is
// rejected with a diagnostic -- never a crash, never a hang, never an
// acted-on garbage message.
TEST(CampaignProtocol, HostileFramesAreRejectedWithDiagnostics) {
  // Zero-length frame: no JSON document is empty.
  EXPECT_THROW(frame_from_bytes(framed("")), std::runtime_error);
  // Length prefix beyond the frame cap (a desynced or hostile stream).
  EXPECT_THROW(frame_from_bytes(framed("{}", campaign::kMaxFrameBytes + 1)),
               std::runtime_error);
  // Truncated payload: promises 64 bytes, delivers 4.
  EXPECT_THROW(frame_from_bytes(framed("{\"t\"", 64)), std::runtime_error);
  // Invalid UTF-8 payload bytes, rejected before the JSON parser runs:
  // a bare continuation byte, an overlong "/" encoding, and a UTF-16
  // surrogate half.
  EXPECT_THROW(frame_from_bytes(framed("{\"t\":\"\x80\"}")),
               std::runtime_error);
  EXPECT_THROW(frame_from_bytes(framed("{\"t\":\"\xc0\xaf\"}")),
               std::runtime_error);
  EXPECT_THROW(frame_from_bytes(framed("{\"t\":\"\xed\xa0\x80\"}")),
               std::runtime_error);
  // Structurally valid UTF-8 that is not JSON.
  EXPECT_THROW(frame_from_bytes(framed("not json at all")),
               std::runtime_error);
  // A well-formed frame still round-trips through the same reader.
  const auto ok = frame_from_bytes(framed("{\"t\":\"stop\"}"));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(campaign::frame_type(*ok), campaign::MsgType::kStop);
}

TEST(CampaignProtocol, UnknownAndMalformedMessageTypesThrow) {
  EXPECT_THROW(campaign::frame_type(Json::array()), std::runtime_error);
  EXPECT_THROW(campaign::frame_type(Json::object()), std::runtime_error);
  Json wrong_kind = Json::object();
  wrong_kind.set("t", 7);
  EXPECT_THROW(campaign::frame_type(wrong_kind), std::runtime_error);
  Json unknown = Json::object();
  unknown.set("t", "self-destruct");
  EXPECT_THROW(campaign::frame_type(unknown), std::runtime_error);
  Json known = Json::object();
  known.set("t", "progress");
  EXPECT_EQ(campaign::frame_type(known), campaign::MsgType::kProgress);
}

TEST(CampaignProtocol, RangeDecodingValidatesShapeAndBounds) {
  using campaign::ranges_from_json;
  // Negative lower bound, inverted range, and an upper bound past the
  // campaign's scenario count are all rejected before any index is used.
  EXPECT_THROW(ranges_from_json(Json::parse("[[-1,2]]")), std::runtime_error);
  EXPECT_THROW(ranges_from_json(Json::parse("[[5,2]]")), std::runtime_error);
  EXPECT_THROW(ranges_from_json(Json::parse("[[0,9]]"), /*max_index=*/8),
               std::runtime_error);
  EXPECT_THROW(ranges_from_json(Json::parse("[[0]]")), std::runtime_error);
  EXPECT_THROW(ranges_from_json(Json::parse("[7]")), std::runtime_error);
  // In-bounds ranges decode; max_index is the scenario count, so a range
  // covering the whole campaign is legal.
  const auto ok = ranges_from_json(Json::parse("[[0,8]]"), 8);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0], (campaign::IndexRange{0, 8}));
}

TEST(CampaignProtocol, RandomGarbageNeverCrashesTheReader) {
  // Deterministic garbage streams: read_frame must either parse or
  // throw; any crash or hang fails the test (and the suite's timeout).
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    std::string bytes;
    const std::size_t n = 1 + rng.next_u64() % 48;
    for (std::size_t i = 0; i < n; ++i)
      bytes.push_back(static_cast<char>(rng.next_u64() & 0xff));
    try {
      (void)frame_from_bytes(bytes);
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()), "") << "empty diagnostic";
    }
  }
}

TEST(CampaignProtocol, ProgressFramesCarryMetricsSnapshots) {
  // A progress frame round-trips its wire snapshot bit-exactly.
  obs::MetricsRegistry reg;
  reg.counter("journal.appends").add(5);
  reg.gauge("queue.depth").set(1.0 / 3.0);
  Json msg = Json::object();
  msg.set("t", "progress").set("completed", Json::array())
      .set("executed", 0).set("resumed", 0).set("outcome", "clean")
      .set("metrics", obs::snapshot_to_wire(reg.snapshot()));
  const auto got = frame_from_bytes(framed(msg.dump()));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(campaign::frame_type(*got), campaign::MsgType::kProgress);
  const obs::Snapshot back = obs::snapshot_from_wire(got->at("metrics"));
  EXPECT_EQ(back.find("journal.appends")->ivalue, 5u);
  EXPECT_EQ(back.find("queue.depth")->value, 1.0 / 3.0);
  // Metrics ride on progress and done; there is no separate stats frame.
  EXPECT_FALSE(campaign::msg_type_from_string("stats").has_value());
}

TEST(CampaignProtocol, SortedIndicesCompressToMaximalRanges) {
  const auto r = campaign::ranges_from_sorted_indices({0, 1, 2, 5, 7, 8});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], (campaign::IndexRange{0, 3}));
  EXPECT_EQ(r[1], (campaign::IndexRange{5, 6}));
  EXPECT_EQ(r[2], (campaign::IndexRange{7, 9}));
  EXPECT_TRUE(campaign::ranges_from_sorted_indices({}).empty());
}

// ---------------------------------------------------------------------------
// Service: fleet shapes vs the single-process bytes
// ---------------------------------------------------------------------------

TEST(CampaignService, InProcessModeMatchesSingleProcessBytes) {
  const auto spec = make_spec("in-process", 8);
  const std::string golden = reference_bytes(spec, plain_fn());

  campaign::ServiceConfig cfg;
  cfg.workers = 0;
  cfg.work_dir = tmp_dir("campaign-inproc");
  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kClean);
  EXPECT_EQ(result.ok, 8);
  EXPECT_EQ(result.exit_code(), 0);
  EXPECT_EQ(result.result_bytes, golden);
}

TEST(CampaignService, ShardedFleetMergesByteIdenticallyToSingleProcess) {
#ifdef RR_TSAN
  GTEST_SKIP() << "fork + threads trips TSan's die_after_fork";
#else
  const auto spec = make_spec("sharded", 13);  // uneven split on purpose
  const std::string golden = reference_bytes(spec, plain_fn());

  campaign::ServiceConfig cfg;
  cfg.workers = 3;
  cfg.chunk = 2;
  cfg.work_dir = tmp_dir("campaign-sharded");
  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kClean);
  EXPECT_EQ(result.ok, 13);
  EXPECT_EQ(result.stats.workers_spawned, 3);
  EXPECT_EQ(result.stats.executed, 13);
  EXPECT_EQ(result.result_bytes, golden);
#endif
}

TEST(CampaignService, CrashedWorkerIsRespawnedAndResultStaysByteIdentical) {
#ifdef RR_TSAN
  GTEST_SKIP() << "fork + threads trips TSan's die_after_fork";
#else
  const auto spec = make_spec("crash", 12);
  const std::string golden = reference_bytes(spec, plain_fn());

  campaign::ServiceConfig cfg;
  cfg.workers = 3;
  cfg.chunk = 1;
  cfg.work_dir = tmp_dir("campaign-crash");
  cfg.crash_shard = 1;   // dies via the journal crash hook (exit 137)...
  cfg.crash_after = 2;   // ...after two fsync'd appends
  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kClean);
  EXPECT_EQ(result.ok, 12);
  EXPECT_GE(result.stats.crashes, 1);
  EXPECT_GE(result.stats.respawns, 1);
  // The respawned worker resumed from its own journal: the append that
  // the crash cut off before its progress frame (the crash hook fires
  // right after the fsync) is served from disk, not recomputed.
  EXPECT_GE(result.stats.resumed, 1);
  EXPECT_EQ(result.result_bytes, golden);
#endif
}

TEST(CampaignService, IdleWorkersStealFromLoadedShards) {
#ifdef RR_TSAN
  GTEST_SKIP() << "fork + threads trips TSan's die_after_fork";
#else
  const auto spec = make_spec("steal", 12);
  // Asymmetric load: the first shard's half is slow, the second's is
  // instant, so the fast worker goes idle while the slow shard still
  // holds unstarted indices -- the steal window.
  const engine::ResilientScenario fn = [](int i,
                                          const engine::CancelToken&) {
    if (i < 6) std::this_thread::sleep_for(std::chrono::milliseconds(40));
    return scenario_metrics(i);
  };
  const std::string golden = reference_bytes(spec, fn);

  campaign::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.chunk = 1;
  cfg.heartbeat = std::chrono::milliseconds(5);
  cfg.work_dir = tmp_dir("campaign-steal");
  const auto result = campaign::run_campaign(spec, fn, cfg);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kClean);
  EXPECT_GE(result.stats.steal_requests, 1);
  EXPECT_GE(result.stats.stolen_indices, 1);
  EXPECT_EQ(result.result_bytes, golden);
#endif
}

TEST(CampaignService, ReusedWorkDirResumesInsteadOfRecomputing) {
#ifdef RR_TSAN
  GTEST_SKIP() << "fork + threads trips TSan's die_after_fork";
#else
  const auto spec = make_spec("resume", 10);
  const std::string golden = reference_bytes(spec, plain_fn());
  const std::string work = tmp_dir("campaign-resume");

  // A previous incarnation journaled part of shard 0's range.
  {
    engine::SweepEngine eng({1});
    engine::SweepJournal journal(work + "/shard-0.jsonl", spec.params, 10);
    engine::ResilientConfig rcfg;
    rcfg.base_seed = spec.base_seed;
    ASSERT_EQ(engine::run_resilient_indices(eng, 10, {0, 1, 2}, plain_fn(),
                                            &journal, rcfg)
                  .ok,
              3);
  }

  campaign::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.work_dir = work;
  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kClean);
  EXPECT_EQ(result.stats.resumed, 3);
  EXPECT_EQ(result.stats.executed, 7);
  EXPECT_EQ(result.result_bytes, golden);
#endif
}

TEST(CampaignService, ResumeReadsJournalsOfShardsThisRunDoesNotSpawn) {
  const auto spec = make_spec("resume-shape", 10);
  const std::string golden = reference_bytes(spec, plain_fn());
  for (const int workers : {2, 0}) {
#ifdef RR_TSAN
    if (workers > 0) continue;  // fork + threads trips TSan's die_after_fork
#endif
    // A previous run with more workers journaled indices 7-9 on shard 3,
    // a shard this run does not spawn.
    const std::string work =
        tmp_dir("campaign-resume-shape-" + std::to_string(workers));
    {
      engine::SweepEngine eng({1});
      engine::SweepJournal journal(work + "/shard-3.jsonl", spec.params, 10);
      engine::ResilientConfig rcfg;
      rcfg.base_seed = spec.base_seed;
      ASSERT_EQ(engine::run_resilient_indices(eng, 10, {7, 8, 9}, plain_fn(),
                                              &journal, rcfg)
                    .ok,
                3);
    }

    campaign::ServiceConfig cfg;
    cfg.workers = workers;
    cfg.work_dir = work;
    const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
    EXPECT_EQ(result.outcome, engine::RunOutcome::kClean) << workers;
    EXPECT_EQ(result.stats.resumed, 3) << workers;
    EXPECT_EQ(result.stats.executed, 7) << workers;
    EXPECT_EQ(result.result_bytes, golden) << workers;
  }
}

TEST(CampaignService,
     WorkersThatAlwaysDieExhaustRespawnsThenTheCoordinatorFinishes) {
#ifdef RR_TSAN
  GTEST_SKIP() << "fork + threads trips TSan's die_after_fork";
#else
  const auto spec = make_spec("always-die", 10);
  const std::string golden = reference_bytes(spec, plain_fn());
  // Scenario 5 kills any worker process that runs it; only the
  // coordinator itself can finish it.
  const pid_t coordinator = ::getpid();
  const engine::ResilientScenario fn = [coordinator](
                                           int i, const engine::CancelToken&) {
    if (i == 5 && ::getpid() != coordinator)
      std::_Exit(fault::to_int(fault::ExitCode::kCrash));
    return scenario_metrics(i);
  };

  campaign::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.chunk = 1;
  cfg.work_dir = tmp_dir("campaign-always-die");
  const auto result = campaign::run_campaign(spec, fn, cfg);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kClean);
  EXPECT_EQ(result.result_bytes, golden);
  // Shard 1 owns index 5 first and dies on it until its respawns run
  // out; the pool then hands index 5 to shard 0, which does the same;
  // with no worker left, the coordinator runs it in-process.
  EXPECT_EQ(result.stats.crashes, 2 * (1 + campaign::kMaxRespawns));
  EXPECT_EQ(result.stats.respawns, 2 * campaign::kMaxRespawns);
#endif
}

TEST(CampaignService, DegradedAndBudgetOutcomesFollowTheExitCodeContract) {
#ifdef RR_TSAN
  GTEST_SKIP() << "fork + threads trips TSan's die_after_fork";
#else
  const engine::ResilientScenario fn = [](int i,
                                          const engine::CancelToken&) {
    if (i == 3) throw engine::PermanentError("injected permanent fault");
    return scenario_metrics(i);
  };

  const auto spec = make_spec("degraded", 6);
  campaign::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.work_dir = tmp_dir("campaign-degraded");
  cfg.cache_dir = tmp_dir("campaign-degraded-cache");
  const auto result = campaign::run_campaign(spec, fn, cfg);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kDegraded);
  EXPECT_EQ(result.quarantined, 1);
  EXPECT_EQ(result.exit_code(), fault::to_int(fault::ExitCode::kDegraded));
  // Degraded runs are never published: re-querying is a miss.
  campaign::ResultCache cache(cfg.cache_dir);
  EXPECT_FALSE(cache
                   .lookup(engine::campaign_hash(spec.params), spec.params)
                   .has_value());

  const engine::ResilientScenario all_fail =
      [](int, const engine::CancelToken&) -> Json {
    throw engine::PermanentError("injected permanent fault");
  };
  const auto bspec = make_spec("budget", 8);
  campaign::ServiceConfig bcfg;
  bcfg.workers = 2;
  bcfg.chunk = 1;
  bcfg.work_dir = tmp_dir("campaign-budget");
  bcfg.resilient.failure_budget = 1;
  bcfg.resilient.retry.max_attempts = 1;
  const auto bresult = campaign::run_campaign(bspec, all_fail, bcfg);
  EXPECT_EQ(bresult.outcome, engine::RunOutcome::kBudgetExceeded);
  EXPECT_EQ(bresult.exit_code(),
            fault::to_int(fault::ExitCode::kBudgetExceeded));
#endif
}

// ---------------------------------------------------------------------------
// Fleet observability (DESIGN.md §15)
// ---------------------------------------------------------------------------

/// Worker-side counters reach the fleet report: each forked worker resets
/// its inherited registry and ships absolute snapshots over stats frames,
/// so the sum of the shard parts' journal.appends is exactly the executed
/// scenario count -- counters that used to be invisible to the
/// coordinator's own snapshot.
TEST(CampaignFleet, WorkerCountersLandInTheFleetReport) {
#ifdef RR_TSAN
  GTEST_SKIP() << "fork + threads trips TSan's die_after_fork";
#else
  const int n = 10;
  const auto spec = make_spec("fleet-metrics", n);
  campaign::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.chunk = 2;
  cfg.work_dir = tmp_dir("campaign-fleet");
  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  ASSERT_EQ(result.outcome, engine::RunOutcome::kClean);
  ASSERT_EQ(result.stats.executed, n);

  // The fleet snapshot has a coordinator part plus one part per shard.
  ASSERT_FALSE(result.fleet.empty());
  ASSERT_NE(result.fleet.part("coord"), nullptr);
  std::uint64_t worker_appends = 0;
  int shard_parts = 0;
  for (const auto& [label, snap] : result.fleet.parts) {
    if (label == "coord") continue;
    ++shard_parts;
    if (const obs::MetricSnapshot* m = snap.find("journal.appends"))
      worker_appends += m->ivalue;
  }
  EXPECT_EQ(shard_parts, 2);
  // Exactly one fsync'd append per executed scenario, summed across the
  // shard parts (the coordinator's registry is polluted by earlier
  // in-process tests; the worker parts are clean by construction).
  EXPECT_EQ(worker_appends, static_cast<std::uint64_t>(n));
  // Each worker also shipped its chunk-latency histogram.
  bool chunk_hist = false;
  for (const auto& [label, snap] : result.fleet.parts)
    if (label != "coord" && snap.find("campaign.chunk_us") != nullptr &&
        snap.find("campaign.chunk_us")->count > 0)
      chunk_hist = true;
  EXPECT_TRUE(chunk_hist);

  // The report embeds the merged snapshot and the per-shard parts, and
  // repeated calls on one result are byte-identical (stored fleet, not a
  // live re-snapshot).
  const auto rep = campaign::campaign_report(spec, cfg, result);
  const Json doc = Json::parse(rep.json);
  ASSERT_NE(doc.at("extra").find("fleet"), nullptr);
  const Json& fleet_json = doc.at("extra").at("fleet");
  ASSERT_NE(fleet_json.find("coord"), nullptr);
  ASSERT_NE(fleet_json.find("0"), nullptr);
  ASSERT_NE(fleet_json.find("1"), nullptr);
  const obs::Snapshot part0 = obs::snapshot_from_wire(fleet_json.at("0"));
  ASSERT_NE(part0.find("journal.appends"), nullptr);
  ASSERT_NE(doc.at("metrics").find("journal.appends"), nullptr);
  EXPECT_GE(doc.at("metrics").at("journal.appends").at("value").as_int(),
            static_cast<std::int64_t>(n));
  EXPECT_EQ(campaign::campaign_report(spec, cfg, result).json, rep.json);
#endif
}

/// The merged distributed trace: one process row per campaign process,
/// wall spans from the workers, and flow events pairing frame send with
/// frame receive across rows.
TEST(CampaignFleet, MergedTraceCarriesShardTracksAndFlowEvents) {
#ifdef RR_TSAN
  GTEST_SKIP() << "fork + threads trips TSan's die_after_fork";
#else
  const auto spec = make_spec("fleet-trace", 8);
  campaign::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.chunk = 2;
  cfg.work_dir = tmp_dir("campaign-trace");
  cfg.trace_path = cfg.work_dir + "/trace.json";
  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  ASSERT_EQ(result.outcome, engine::RunOutcome::kClean);

  const Json doc = Json::parse(read_file(cfg.trace_path));
  std::vector<std::string> processes;
  int flow_begins = 0, flow_ends = 0;
  bool worker_span = false;
  for (const Json& e : doc.at("traceEvents").as_array()) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "M" && e.at("name").as_string() == "process_name")
      processes.push_back(e.at("args").at("name").as_string());
    else if (ph == "s")
      ++flow_begins;
    else if (ph == "f")
      ++flow_ends;
    else if (ph == "X" && e.at("pid").as_int() > 1)
      worker_span = true;  // a wall span re-homed onto a shard's row
  }
  // coord + both shards are present as named process rows.
  EXPECT_NE(std::find(processes.begin(), processes.end(), "coord"),
            processes.end());
  EXPECT_NE(std::find(processes.begin(), processes.end(), "shard0"),
            processes.end());
  EXPECT_NE(std::find(processes.begin(), processes.end(), "shard1"),
            processes.end());
  // Every frame leg is instrumented on both ends, so a clean 2-worker
  // campaign has many completed flows; >= 1 is the contract.
  EXPECT_GE(flow_begins, 1);
  EXPECT_GE(flow_ends, 1);
  EXPECT_TRUE(worker_span);
#endif
}

/// A degraded campaign leaves a flight-recorder postmortem behind.
TEST(CampaignFleet, DegradedRunDumpsTheFlightRecorder) {
#ifdef RR_TSAN
  GTEST_SKIP() << "fork + threads trips TSan's die_after_fork";
#else
  const engine::ResilientScenario fn = [](int i,
                                          const engine::CancelToken&) {
    if (i == 2) throw engine::PermanentError("injected permanent fault");
    return scenario_metrics(i);
  };
  const auto spec = make_spec("fleet-flightrec", 6);
  campaign::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.work_dir = tmp_dir("campaign-flightrec");
  // Earlier campaigns in this process already armed a dump path; pin it
  // to this run's work dir so the assertion reads the right file.
  const std::string dump = cfg.work_dir + "/flightrec.json";
  FlightRecorder::global().set_dump_path(dump);
  const auto result = campaign::run_campaign(spec, fn, cfg);
  EXPECT_EQ(result.exit_code(), fault::to_int(fault::ExitCode::kDegraded));

  const Json doc = Json::parse(read_file(dump));
  EXPECT_EQ(doc.at("flightrec").as_string(), "rr-flightrec");
  // The ring captured the campaign marks and frame traffic leading up to
  // the degraded verdict.
  bool saw_mark = false, saw_frame = false;
  for (const Json& e : doc.at("events").as_array()) {
    if (e.at("kind").as_string() == "mark") saw_mark = true;
    if (e.at("kind").as_string() == "frame") saw_frame = true;
  }
  EXPECT_TRUE(saw_mark);
  EXPECT_TRUE(saw_frame);
#endif
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

TEST(CampaignCache, RepeatQueryServesVerbatimBytesAndCountsOneHitPerScenario) {
#ifdef RR_TSAN
  GTEST_SKIP() << "fork + threads trips TSan's die_after_fork";
#else
  const int n = 9;
  const auto spec = make_spec("cache", n);
  campaign::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.work_dir = tmp_dir("campaign-cache-work");
  cfg.cache_dir = tmp_dir("campaign-cache");

  const auto first = campaign::run_campaign(spec, plain_fn(), cfg);
  ASSERT_EQ(first.outcome, engine::RunOutcome::kClean);
  ASSERT_FALSE(first.cache_hit);

  // Second query: a different work dir proves nothing is recomputed.
  campaign::ServiceConfig cfg2 = cfg;
  cfg2.work_dir = tmp_dir("campaign-cache-work2");
  const std::uint64_t hits_before = hit_count();
  const auto second = campaign::run_campaign(spec, plain_fn(), cfg2);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.stats.executed, 0);
  EXPECT_EQ(second.stats.workers_spawned, 0);
  EXPECT_EQ(hit_count() - hits_before, static_cast<std::uint64_t>(n));

  // Byte-identity, result and report both: the hit serves the populating
  // run's artifacts verbatim.
  EXPECT_EQ(second.result_bytes, first.result_bytes);
  const std::string entry_dir = cfg.cache_dir + "/" + first.campaign;
  EXPECT_EQ(second.cached_report_json, read_file(entry_dir + "/report.json"));
  const auto report_pair = campaign::campaign_report(spec, cfg2, second);
  EXPECT_EQ(report_pair.json, second.cached_report_json);
  EXPECT_EQ(report_pair.markdown, read_file(entry_dir + "/report.md"));

  // Per-scenario counts survive the round trip through cached bytes.
  EXPECT_EQ(second.ok, n);
  ASSERT_EQ(second.entries.size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(second.entries[0].has_value());
#endif
}

TEST(CampaignCache, TamperedEntryDegradesToAMissNotWrongBytes) {
  const auto spec = make_spec("tamper", 4);
  const std::uint64_t id = engine::campaign_hash(spec.params);
  campaign::ResultCache cache(tmp_dir("campaign-tamper-cache"));
  EXPECT_FALSE(cache.lookup(id, spec.params).has_value());

  Json meta = Json::object();
  meta.set("cache", "rr-campaign-cache").set("version", 1)
      .set("campaign", engine::campaign_hex(id)).set("name", spec.name)
      .set("scenarios", 4).set("params", spec.params).set("outcome", "clean");
  ASSERT_TRUE(cache.publish(id, meta, "{}\n", "{}\n", "# r\n"));
  ASSERT_TRUE(cache.lookup(id, spec.params).has_value());
  // Racer publishing the same identity is idempotent.
  EXPECT_TRUE(cache.publish(id, meta, "{}\n", "{}\n", "# r\n"));

  // Different params under the same hash slot: identity mismatch => miss.
  EXPECT_FALSE(
      cache.lookup(id, campaign_params("something-else")).has_value());

  // Corrupt the meta: unreadable entries are misses, never wrong bytes.
  ASSERT_TRUE(
      write_file_atomic(cache.entry_dir(id) + "/meta.json", "not json"));
  EXPECT_FALSE(cache.lookup(id, spec.params).has_value());
}

}  // namespace
}  // namespace rr