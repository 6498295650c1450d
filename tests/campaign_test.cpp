// Contract tests for the sharded campaign service (DESIGN.md §11): the
// frame protocol, the coordinator/worker fleet (sharding, work-stealing,
// crash respawn), resume from the campaign journal (the only resume),
// and the content-addressed result cache.  The invariant under test
// throughout is byte-identity: the result of any fleet shape --
// including one with a worker killed mid-shard, a coordinator killed
// mid-campaign, or a disk that takes no writes -- equals the
// single-process bytes, and a cache hit serves the populating run's
// bytes verbatim.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/protocol.hpp"
#include "campaign/service.hpp"
#include "fault/resilience_study.hpp"
#include "model/sweep_model.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "sweep_engine/result_store.hpp"
#include "sweep_engine/studies.hpp"
#include "util/env.hpp"
#include "util/fileio.hpp"
#include "util/flightrec.hpp"
#include "util/rng.hpp"

#include "tmp_dir.hpp"

namespace rr {
namespace {

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
  engine::ResilientConfig rcfg;
  rcfg.base_seed = spec.base_seed;
  const auto report = engine::run_resilient(spec.scenarios, fn, rcfg);
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

namespace {

/// valid_utf8 as it was before it skipped ASCII words: one byte at a
/// time, the reference its fast path must agree with.
bool utf8_byte_by_byte(std::string_view bytes) {
  std::size_t i = 0;
  while (i < bytes.size()) {
    const auto b0 = static_cast<unsigned char>(bytes[i]);
    std::size_t need = 0;
    std::uint32_t cp = 0;
    if (b0 < 0x80) {
      ++i;
      continue;
    } else if ((b0 & 0xe0) == 0xc0) {
      need = 1;
      cp = b0 & 0x1fu;
    } else if ((b0 & 0xf0) == 0xe0) {
      need = 2;
      cp = b0 & 0x0fu;
    } else if ((b0 & 0xf8) == 0xf0) {
      need = 3;
      cp = b0 & 0x07u;
    } else {
      return false;
    }
    if (i + need >= bytes.size()) return false;
    for (std::size_t k = 1; k <= need; ++k) {
      const auto bk = static_cast<unsigned char>(bytes[i + k]);
      if ((bk & 0xc0) != 0x80) return false;
      cp = (cp << 6) | (bk & 0x3fu);
    }
    if ((need == 1 && cp < 0x80) || (need == 2 && cp < 0x800) ||
        (need == 3 && cp < 0x10000))
      return false;
    if ((cp >= 0xd800 && cp <= 0xdfff) || cp > 0x10ffff) return false;
    i += need + 1;
  }
  return true;
}

}  // namespace

TEST(CampaignProtocol, Utf8CheckAgreesWithAByteByByteReference) {
  // An invalid byte at every offset of all-ASCII buffers of 1-24 bytes:
  // wherever the 8-byte ASCII skip stands, it must stop for that byte.
  for (std::size_t len = 1; len <= 24; ++len) {
    const std::string ascii(len, 'a');
    EXPECT_TRUE(campaign::valid_utf8(ascii)) << len;
    for (std::size_t at = 0; at < len; ++at)
      for (const char bad : {'\x80', '\xbf', '\xc3', '\xe2', '\xf0', '\xff'}) {
        std::string buf = ascii;
        buf[at] = bad;
        EXPECT_FALSE(campaign::valid_utf8(buf)) << len << " at " << at;
        EXPECT_EQ(campaign::valid_utf8(buf), utf8_byte_by_byte(buf))
            << len << " at " << at;
      }
  }
  // Valid 2-, 3- and 4-byte sequences at every offset of a 24-byte ASCII
  // buffer, so each straddles both 8-byte boundaries in turn; and the same
  // buffers cut off inside the sequence.
  for (const std::string seq :
       {"\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80"}) {
    for (std::size_t at = 0; at + seq.size() <= 24; ++at) {
      std::string buf(24, 'a');
      buf.replace(at, seq.size(), seq);
      EXPECT_TRUE(campaign::valid_utf8(buf)) << seq.size() << " at " << at;
      EXPECT_EQ(campaign::valid_utf8(buf), utf8_byte_by_byte(buf));
      const std::string cut = buf.substr(0, at + seq.size() - 1);
      EXPECT_FALSE(campaign::valid_utf8(cut)) << seq.size() << " at " << at;
      EXPECT_EQ(campaign::valid_utf8(cut), utf8_byte_by_byte(cut));
    }
  }
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
  // Bounds past int range are rejected, not wrapped: truncated to 32 bits,
  // [[4294967296,4294967298]] would read as the in-bounds [0,2).
  EXPECT_THROW(ranges_from_json(Json::parse("[[4294967296,4294967298]]"), 8),
               std::runtime_error);
  EXPECT_THROW(ranges_from_json(Json::parse("[[0,4294967297]]"), 8),
               std::runtime_error);
  EXPECT_THROW(ranges_from_json(Json::parse("[[-4294967296,2]]")),
               std::runtime_error);
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
  msg.set("t", "progress").set("entries", Json::array())
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

TEST(CampaignProtocol, TraceFieldRoundTripsAndDecodingFailsClosed) {
  using campaign::trace_from_json;
  campaign::FrameTrace trace;
  trace.spans.push_back({"chunk x4", TimePoint::from_ps(1'000'000'001'000),
                         TimePoint::from_ps(1'000'000'009'000)});
  trace.recvs.push_back({"run", TimePoint::from_ps(5'000),
                         TimePoint::from_ps(5'000)});
  const auto back = trace_from_json(
      Json::parse(campaign::trace_to_json(trace).dump()));
  ASSERT_EQ(back.spans.size(), 1u);
  ASSERT_EQ(back.recvs.size(), 1u);
  EXPECT_EQ(back.spans[0].name, "chunk x4");
  EXPECT_EQ(back.spans[0].start.ps(), 1'000'000'001'000);  // ns exact
  EXPECT_EQ(back.spans[0].end.ps(), 1'000'000'009'000);
  EXPECT_EQ(back.recvs[0].name, "run");
  // Hostile shapes and times are rejected, never recorded: a missing
  // list, a non-triple, a non-string name, a negative, fractional or
  // out-of-range time, and an end before its start.
  for (const char* bad :
       {"[]", "{\"spans\":[]}", "{\"spans\":[[\"a\",1]],\"recvs\":[]}",
        "{\"spans\":[[7,1,2]],\"recvs\":[]}",
        "{\"spans\":[[\"a\",-1,2]],\"recvs\":[]}",
        "{\"spans\":[[\"a\",1.5,2]],\"recvs\":[]}",
        "{\"spans\":[[\"a\",1,1e300]],\"recvs\":[]}",
        "{\"spans\":[],\"recvs\":[[\"run\",9,3]]}"})
    EXPECT_THROW(trace_from_json(Json::parse(bad)), std::runtime_error) << bad;
  EXPECT_THROW(campaign::time_from_json(Json("soon")), std::runtime_error);
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
}

TEST(CampaignService, CrashedWorkerIsRespawnedAndResultStaysByteIdentical) {
  const auto spec = make_spec("crash", 12);
  const std::string golden = reference_bytes(spec, plain_fn());

  campaign::ServiceConfig cfg;
  cfg.workers = 3;
  cfg.chunk = 1;
  cfg.work_dir = tmp_dir("campaign-crash");
  cfg.crash_shard = 1;   // dies with exit 137 once it has run two
  cfg.crash_after = 2;   // scenarios, before reporting the second
  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kClean);
  EXPECT_EQ(result.ok, 12);
  EXPECT_GE(result.stats.crashes, 1);
  EXPECT_GE(result.stats.respawns, 1);
  // Workers keep no journal: the scenario the crash kept from being
  // reported is recomputed by the respawn, and every entry the
  // coordinator journaled came from this run.
  EXPECT_EQ(result.stats.resumed, 0);
  EXPECT_EQ(result.stats.executed, 12);
  EXPECT_EQ(result.result_bytes, golden);
}

TEST(CampaignService, IdleWorkersStealFromLoadedShards) {
  const auto spec = make_spec("steal", 12);
  const std::string golden = reference_bytes(spec, plain_fn());

  campaign::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.chunk = 1;
  cfg.work_dir = tmp_dir("campaign-steal");
  // Shard 0 owns 0-5 and shard 1 owns 6-11.  The steal window opens on
  // journal events, not a clock: index 0 waits until the coordinator has
  // journaled 11, the fast shard's last, and index 1 until it has
  // journaled 0.  The coordinator journals 11, finds shard 1 idle and
  // sends shard 0 a steal request before it reads shard 0's frame for
  // index 0, so the request is waiting when shard 0 next drains its
  // control frames, after index 1, with four indices still unstarted.
  // (A wait gives up after 10 s rather than hang.)
  const std::string journal = cfg.work_dir + "/campaign.jsonl";
  const auto wait_until_journaled = [journal](int index) {
    const std::string record = "{\"index\":" + std::to_string(index) + ",";
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (read_file(journal).find(record) == std::string::npos &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  const engine::ResilientScenario fn = [&](int i, const engine::CancelToken&) {
    if (i == 0) wait_until_journaled(11);
    if (i == 1) wait_until_journaled(0);
    return scenario_metrics(i);
  };
  const auto result = campaign::run_campaign(spec, fn, cfg);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kClean);
  EXPECT_GE(result.stats.steal_requests, 1);
  EXPECT_GE(result.stats.stolen_indices, 1);
  EXPECT_EQ(result.result_bytes, golden);
}

TEST(CampaignService, ReusedWorkDirResumesInsteadOfRecomputing) {
  const auto spec = make_spec("resume", 10);
  const std::string golden = reference_bytes(spec, plain_fn());
  for (const int workers : {2, 0}) {
    // A previous incarnation of this campaign journaled indices 0-2.
    const std::string work =
        tmp_dir("campaign-resume-" + std::to_string(workers));
    {
      engine::SweepJournal journal(work + "/campaign.jsonl", spec.params, 10);
      engine::ResilientConfig rcfg;
      rcfg.base_seed = spec.base_seed;
      ASSERT_EQ(engine::run_resilient_indices(10, {0, 1, 2}, plain_fn(),
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

TEST(CampaignService, ResumeReadsJournalsOfShardsThisRunDoesNotSpawn) {
  const auto spec = make_spec("resume-shape", 10);
  const std::string golden = reference_bytes(spec, plain_fn());
  for (const int workers : {2, 0}) {
    // A previous run with more workers journaled indices 7-9, the range
    // of its shard 3, a shard this run does not spawn.  The one campaign
    // journal keeps them whatever the fleet shape.
    const std::string work =
        tmp_dir("campaign-resume-shape-" + std::to_string(workers));
    {
      engine::SweepJournal journal(work + "/campaign.jsonl", spec.params, 10);
      engine::ResilientConfig rcfg;
      rcfg.base_seed = spec.base_seed;
      ASSERT_EQ(engine::run_resilient_indices(10, {7, 8, 9}, plain_fn(),
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

TEST(CampaignService, ResumeRefusesAnEntryJournaledUnderAnotherSeed) {
  // A checksummed record whose seed is not the one the spec derives was
  // journaled under a different seeding scheme.  Serving it would break
  // determinism and the journal refuses a second record for its index,
  // so the campaign must refuse the work dir, under any fleet shape,
  // before anything runs.
  const auto spec = make_spec("stale-seed", 6);
  for (const int workers : {0, 2}) {
    const std::string work =
        tmp_dir("campaign-stale-seed-" + std::to_string(workers));
    {
      engine::SweepJournal journal(work + "/campaign.jsonl", spec.params, 6);
      engine::JournalEntry stale;
      stale.index = 2;
      stale.seed = 12345;  // not scenario_seed(spec.base_seed, 2)
      stale.metrics = Json::object();
      stale.metrics.set("x", 999);
      journal.append(stale);
    }

    campaign::ServiceConfig cfg;
    cfg.workers = workers;
    cfg.work_dir = work;
    try {
      const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
      ADD_FAILURE() << workers << " workers: the stale entry was accepted ("
                    << engine::to_string(result.outcome) << ")";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("campaign.jsonl"), std::string::npos) << what;
      EXPECT_NE(what.find("index 2 "), std::string::npos) << what;
      EXPECT_NE(what.find("12345"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(engine::scenario_seed(
                    spec.base_seed, 2))),
                std::string::npos)
          << what;
    }
  }
}

TEST(CampaignService,
     WorkersThatAlwaysDieExhaustRespawnsThenTheCoordinatorFinishes) {
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
}

TEST(CampaignService, DegradedAndBudgetOutcomesFollowTheExitCodeContract) {
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

  // The failure budget is campaign-wide, whatever the fleet shape: two
  // failures in different shards' ranges exceed a budget of one under
  // any worker count.
  const engine::ResilientScenario two_fail =
      [](int i, const engine::CancelToken&) {
        if (i == 1 || i == 6)
          throw engine::PermanentError("injected permanent fault");
        return scenario_metrics(i);
      };
  const auto bspec = make_spec("budget", 8);
  for (const int workers : {0, 1, 2, 4}) {
    campaign::ServiceConfig bcfg;
    bcfg.workers = workers;
    bcfg.chunk = 1;
    bcfg.work_dir = tmp_dir("campaign-budget-" + std::to_string(workers));
    bcfg.resilient.failure_budget = 1;
    bcfg.resilient.retry.max_attempts = 1;
    const auto bresult = campaign::run_campaign(bspec, two_fail, bcfg);
    EXPECT_EQ(bresult.outcome, engine::RunOutcome::kBudgetExceeded)
        << workers << " workers";
    EXPECT_EQ(bresult.exit_code(),
              fault::to_int(fault::ExitCode::kBudgetExceeded))
        << workers << " workers";
  }

  // Failures the journal already holds count too: an earlier run
  // journaled index 1's failure, so index 6's exceeds the budget and the
  // in-process runner, handed what is left of it, stops there.
  const std::string work = tmp_dir("campaign-budget-resumed");
  {
    engine::SweepJournal journal(work + "/campaign.jsonl", bspec.params, 8);
    engine::ResilientConfig rcfg;
    rcfg.base_seed = bspec.base_seed;
    ASSERT_EQ(engine::run_resilient_indices(8, {1}, two_fail, &journal, rcfg)
                  .quarantined,
              1);
  }
  campaign::ServiceConfig resume_cfg;
  resume_cfg.workers = 0;
  resume_cfg.work_dir = work;
  resume_cfg.resilient.failure_budget = 1;
  const auto rresult = campaign::run_campaign(bspec, two_fail, resume_cfg);
  EXPECT_EQ(rresult.outcome, engine::RunOutcome::kBudgetExceeded);
  EXPECT_EQ(rresult.stats.resumed, 1);
  EXPECT_EQ(rresult.not_run, 1);  // index 7, after the failure at 6
}

/// The environment of a full disk: every write fails with ENOSPC.
class FullDiskEnv : public Env {
 public:
  long write(int, const void*, std::size_t) override {
    errno = ENOSPC;
    return -1;
  }
};

TEST(CampaignService, FullDiskCostsDurabilityNeverResults) {
  const auto spec = make_spec("full-disk", 12);
  const std::string golden = reference_bytes(spec, plain_fn());
  for (const int workers : {0, 2}) {
    campaign::ServiceConfig cfg;
    cfg.workers = workers;
    cfg.work_dir = tmp_dir("campaign-full-disk-" + std::to_string(workers));
    FullDiskEnv full;
    campaign::CampaignResult result;
    {
      const ScopedEnv scope(&full);
      result = campaign::run_campaign(spec, plain_fn(), cfg);
    }
    // The journal fell back to memory-only, so the run is degraded, but
    // every scenario's result is there, byte-identical.
    EXPECT_EQ(result.outcome, engine::RunOutcome::kDegraded) << workers;
    EXPECT_EQ(result.ok, spec.scenarios) << workers;
    EXPECT_EQ(result.result_bytes, golden) << workers;
  }
}

// ---------------------------------------------------------------------------
// Resume: the coordinator's preload is the only resume.  Journaled
// scenarios are served bit-exactly, never recomputed, under any fleet
// shape, and a killed campaign resumes to the uninterrupted bytes.
// ---------------------------------------------------------------------------

/// Every entry is ok and carries exactly `reference`'s metrics.  Numbers
/// print %.17g, so equal dumps mean bit-identical doubles.
template <typename Point>
void expect_points(const campaign::CampaignResult& result,
                   const std::vector<Point>& reference, const char* what) {
  ASSERT_EQ(result.ok, static_cast<int>(reference.size())) << what;
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(result.entries[i]->metrics.dump(),
              engine::to_json(reference[i]).dump())
        << what << " point " << i;
}

TEST(ResilientRun, ResumeServesJournaledScenariosBitIdentically) {
  // Small enough to run in milliseconds, big enough that failures happen.
  const std::vector<int> nodes{1, 180, 1024, 3060};
  fault::StudyConfig study;
  study.replications = 300;
  const auto& ctx = engine::SharedContext::instance();
  const auto reference =
      fault::hpl_study(ctx.system(), ctx.topology(), nodes, study);

  // The interrupted-HPL walk as a campaign, seeded as hpl_study seeds it.
  campaign::CampaignSpec spec;
  spec.name = "hpl_resume";
  spec.params = engine::hpl_campaign_params(nodes, study);
  spec.scenarios = static_cast<int>(nodes.size());
  spec.seed_of = [&](int i) {
    return fault::study_point_seed(study.seed,
                                   nodes[static_cast<std::size_t>(i)], 0);
  };
  const engine::ResilientScenario fn = [&](int i,
                                           const engine::CancelToken&) {
    const int n = nodes[static_cast<std::size_t>(i)];
    return engine::to_json(fault::study_point(
        ctx.system(), ctx.topology(), n,
        fault::hpl_fault_free_s(ctx.system(), n), study));
  };

  campaign::ServiceConfig cfg;
  cfg.workers = 0;
  cfg.work_dir = tmp_dir("campaign-resume-hpl");
  const auto fresh = campaign::run_campaign(spec, fn, cfg);
  EXPECT_EQ(fresh.stats.resumed, 0);
  expect_points(fresh, reference, "fresh campaign");

  // A rerun of the work dir under another fleet shape: every point comes
  // from the journal, decoded -- and the numbers are still bit-identical.
  cfg.workers = 2;
  const auto resumed = campaign::run_campaign(spec, fn, cfg);
  EXPECT_EQ(resumed.stats.resumed, spec.scenarios);
  EXPECT_EQ(resumed.stats.executed, 0);
  EXPECT_EQ(resumed.stats.workers_spawned, 0);
  expect_points(resumed, reference, "resumed campaign");
}

TEST(ResilientRun, ResumableScaleSeriesMatchesSerial) {
  const std::vector<int>& nodes = model::paper_node_counts();
  const auto serial = model::figure13_series(nodes);

  campaign::CampaignSpec spec;
  spec.name = "fig13_series";
  spec.params = Json::object();
  spec.params.set("study", "sweep3d_scale");
  spec.scenarios = static_cast<int>(nodes.size());
  const engine::SharedContext& ctx = engine::SharedContext::instance();
  campaign::ServiceConfig cfg;
  cfg.workers = 0;
  cfg.work_dir = tmp_dir("campaign-resume-scale");
  const auto result = campaign::run_campaign(
      spec,
      [&](int i, const engine::CancelToken&) {
        return engine::to_json(
            model::scale_point(nodes[static_cast<std::size_t>(i)], {},
                               ctx.spe_pxc(), ctx.opteron_1800()));
      },
      cfg);
  expect_points(result, serial, "scale series");
}

// Kill-and-resume: a forked child runs the campaign and dies at a
// scenario boundary (the RR_CRASH_AFTER_N hook fires std::_Exit right
// after a journal fsync -- the moral equivalent of SIGKILL); the resumed
// campaign's result is byte-identical to an uninterrupted run's.
TEST(ResilientRun, KillAndResumeProducesByteIdenticalResults) {
  const auto spec = make_spec("kill-and-resume", 6);
  const std::string golden = reference_bytes(spec, plain_fn());
  campaign::ServiceConfig cfg;
  cfg.workers = 0;
  cfg.work_dir = tmp_dir("campaign-killed");

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // In the child: no gtest, no return -- either the crash hook fires
    // inside the journal's second append or we report survival via a
    // distinctive code.
    ::setenv("RR_CRASH_AFTER_N", "2", 1);
    campaign::run_campaign(spec, plain_fn(), cfg);
    std::_Exit(42);  // unreachable if the hook worked
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), engine::SweepJournal::kCrashExitCode);

  // Relaunch on the same work dir: the two journaled scenarios are
  // served, the other four run, and the bytes match the golden.
  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  EXPECT_EQ(result.ok, spec.scenarios);
  EXPECT_EQ(result.stats.resumed, 2);
  EXPECT_EQ(result.stats.executed, 4);
  EXPECT_EQ(result.result_bytes, golden);

  // The artifact writer is atomic: the file lands whole.
  const std::string out = tmp_path("campaign-killed-out");
  ASSERT_TRUE(result.write_results(out));
  EXPECT_EQ(read_file(out), golden);
  std::remove(out.c_str());
}

TEST(ShardRuns, WorkerJournalResumesBitExactlyInProcess) {
  const int n = 6;
  const auto spec = make_spec("takeover", n);
  const std::string golden = reference_bytes(spec, plain_fn());

  // "Worker": journals a shard's worth of the campaign, then disappears.
  const std::string work = tmp_dir("campaign-takeover");
  const std::string path = work + "/campaign.jsonl";
  {
    engine::SweepJournal journal(path, spec.params, n);
    engine::ResilientConfig rcfg;
    rcfg.base_seed = spec.base_seed;
    ASSERT_EQ(engine::run_resilient_indices(n, {0, 1, 4}, plain_fn(),
                                            &journal, rcfg)
                  .ok,
              3);
  }

  // read_journal_entries sees the subset's slots without touching the file.
  const auto only = engine::read_journal_entries(path, spec.params, n);
  EXPECT_TRUE(only[0].has_value());
  EXPECT_FALSE(only[2].has_value());

  // In-process takeover: the coordinator with no workers resumes the
  // journal; the preloaded entries are served bit-exactly, never
  // recomputed.
  campaign::ServiceConfig cfg;
  cfg.workers = 0;
  cfg.work_dir = work;
  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  EXPECT_EQ(result.ok, n);
  EXPECT_EQ(result.stats.resumed, 3);
  EXPECT_EQ(result.result_bytes, golden);
}

// ---------------------------------------------------------------------------
// Fleet observability (DESIGN.md §15)
// ---------------------------------------------------------------------------

/// Worker-side counters reach the fleet report: each forked worker resets
/// its inherited registry and ships absolute snapshots on its progress and
/// done frames, so the sum of the shard parts' sweep.ok is exactly the
/// executed scenario count -- counters that used to be invisible to the
/// coordinator's own snapshot.
TEST(CampaignFleet, WorkerCountersLandInTheFleetReport) {
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
  std::uint64_t worker_ok = 0;
  int shard_parts = 0;
  for (const auto& [label, snap] : result.fleet.parts) {
    if (label == "coord") continue;
    ++shard_parts;
    if (const obs::MetricSnapshot* m = snap.find("sweep.ok"))
      worker_ok += m->ivalue;
  }
  EXPECT_EQ(shard_parts, 2);
  // Exactly one ok scenario per executed scenario, summed across the
  // shard parts (the coordinator's registry is polluted by earlier
  // in-process tests; the worker parts are clean by construction).
  EXPECT_EQ(worker_ok, static_cast<std::uint64_t>(n));
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
  ASSERT_NE(part0.find("sweep.ok"), nullptr);
  ASSERT_NE(doc.at("metrics").find("journal.appends"), nullptr);
  EXPECT_GE(doc.at("metrics").at("journal.appends").at("value").as_int(),
            static_cast<std::int64_t>(n));
  EXPECT_EQ(campaign::campaign_report(spec, cfg, result).json, rep.json);
}

/// A campaign trace file, read back: process rows by name, and the
/// spans on each row.
struct FleetTrace {
  std::map<std::string, std::int64_t> rows;  ///< process_name -> pid
  std::map<std::int64_t, std::vector<std::string>> spans;  ///< pid -> names
  std::map<std::int64_t, double> flow_begin, flow_end;     ///< id -> ts

  explicit FleetTrace(const std::string& path) {
    const Json doc = Json::parse(read_file(path));
    for (const Json& e : doc.at("traceEvents").as_array()) {
      const std::string ph = e.at("ph").as_string();
      if (ph == "M" && e.at("name").as_string() == "process_name")
        rows[e.at("args").at("name").as_string()] = e.at("pid").as_int();
      else if (ph == "X")
        spans[e.at("pid").as_int()].push_back(e.at("name").as_string());
      else if (ph == "s")
        flow_begin[e.at("id").as_int()] = e.at("ts").as_double();
      else if (ph == "f")
        flow_end[e.at("id").as_int()] = e.at("ts").as_double();
    }
  }

  /// Spans on the row named `row` (empty if there is no such row).
  std::vector<std::string> spans_on(const std::string& row) const {
    const auto r = rows.find(row);
    if (r == rows.end()) return {};
    const auto s = spans.find(r->second);
    return s == spans.end() ? std::vector<std::string>{} : s->second;
  }
};

/// Trace files a campaign left in its work dir.
std::vector<std::string> trace_files_in(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("trace-", 0) == 0) out.push_back(name);
  }
  return out;
}

/// The fleet trace: one process row per campaign process, wall spans
/// from the workers, and flow events pairing frame send with frame
/// receive across rows -- each receive at or after its send, because the
/// whole fleet shares one wall-clock origin.
TEST(CampaignFleet, MergedTraceCarriesShardTracksAndFlowEvents) {
  const auto spec = make_spec("fleet-trace", 8);
  campaign::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.chunk = 2;
  cfg.work_dir = tmp_dir("campaign-trace");
  cfg.trace_path = cfg.work_dir + "/trace.json";
  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  ASSERT_EQ(result.outcome, engine::RunOutcome::kClean);

  const FleetTrace trace(cfg.trace_path);
  // coord + both shards are present as named process rows.
  for (const char* row : {"coord", "shard0", "shard1"})
    EXPECT_EQ(trace.rows.count(row), 1u) << row;
  // The workers' chunk spans land on their own rows.
  EXPECT_FALSE(trace.spans_on("shard0").empty());
  EXPECT_FALSE(trace.spans_on("shard1").empty());
  // Every frame leg is recorded on both ends, so a clean 2-worker
  // campaign has many completed flows, and none ends before it begins.
  EXPECT_FALSE(trace.flow_begin.empty());
  EXPECT_EQ(trace.flow_begin.size(), trace.flow_end.size());
  for (const auto& [id, ts] : trace.flow_begin) {
    ASSERT_EQ(trace.flow_end.count(id), 1u) << "flow " << id << " unpaired";
    EXPECT_GE(trace.flow_end.at(id), ts) << "flow " << id << " runs backwards";
  }
}

/// A crashed incarnation keeps what it shipped before it died: its row
/// carries the chunk it reported, and the respawn gets a row of its own.
TEST(CampaignFleet, CrashedIncarnationKeepsTheSpansItSent) {
  const auto spec = make_spec("fleet-trace-crash", 8);
  campaign::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.chunk = 1;
  cfg.crash_shard = 1;  // reports its first scenario, dies on its second
  cfg.crash_after = 2;
  cfg.work_dir = tmp_dir("campaign-trace-crash");
  cfg.trace_path = cfg.work_dir + "/trace.json";
  const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
  ASSERT_EQ(result.outcome, engine::RunOutcome::kClean);
  ASSERT_GE(result.stats.crashes, 1);

  const FleetTrace trace(cfg.trace_path);
  const auto first = trace.spans_on("shard1");
  EXPECT_NE(std::find(first.begin(), first.end(), "chunk x1"), first.end());
  EXPECT_EQ(trace.rows.count("shard1.1"), 1u);
}

/// The coordinator writes the only trace: no per-process trace file is
/// left in the work dir, whatever the fleet shape.
TEST(CampaignFleet, TracingLeavesNoFilesInTheWorkDir) {
  for (const int workers : {0, 2}) {
    const auto spec = make_spec("fleet-trace-files", 8);
    campaign::ServiceConfig cfg;
    cfg.workers = workers;
    cfg.work_dir = tmp_dir("campaign-trace-files");
    cfg.trace_path = tmp_path("campaign-trace-files.json");
    const auto result = campaign::run_campaign(spec, plain_fn(), cfg);
    ASSERT_EQ(result.outcome, engine::RunOutcome::kClean);
    EXPECT_EQ(trace_files_in(cfg.work_dir), std::vector<std::string>{})
        << workers << " workers";
    if (workers == 0) {
      // The in-process run is one span on the coordinator's row.
      const auto coord = FleetTrace(cfg.trace_path).spans_on("coord");
      EXPECT_NE(std::find(coord.begin(), coord.end(), "campaign x8"),
                coord.end());
    }
  }
}

/// A degraded campaign leaves a flight-recorder postmortem behind.
TEST(CampaignFleet, DegradedRunDumpsTheFlightRecorder) {
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
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

TEST(CampaignCache, RepeatQueryServesVerbatimBytesAndCountsOneHitPerScenario) {
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