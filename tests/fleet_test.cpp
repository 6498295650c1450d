// Fleet observability tests (DESIGN.md §15): exact snapshot wire
// round-trips, the cross-process merge algebra (K worker snapshots merge
// to exactly what one registry observing every sample would hold), the
// crash flight recorder's ring/dump behavior, and the shard-tagged JSONL
// log field the workers emit.  The
// fleet trace is one coordinator-side recorder: its process rows and
// flows are tested in trace_test, the campaign's use of them in
// campaign_test.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "util/fileio.hpp"
#include "util/flightrec.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

#include "tmp_dir.hpp"

namespace rr::obs {
namespace {

// ---------------------------------------------------------------------------
// Wire round-trip.
// ---------------------------------------------------------------------------

TEST(FleetWire, RoundTripIsExact) {
  MetricsRegistry reg;
  reg.counter("c.requests").add(1234567890123ull);
  reg.gauge("g.depth").set(2.71828182845904523);
  Histogram& h = reg.histogram("h.lat_us", {1.0, 2.0, 5.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(100.0);
  const Snapshot before = reg.snapshot();
  const Snapshot after = snapshot_from_wire(snapshot_to_wire(before));
  ASSERT_EQ(after.metrics.size(), before.metrics.size());
  for (std::size_t i = 0; i < before.metrics.size(); ++i) {
    const MetricSnapshot& a = before.metrics[i];
    const MetricSnapshot& b = after.metrics[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.ivalue, b.ivalue);
    EXPECT_EQ(a.value, b.value);  // %.17g: bit-exact, not approximate
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.bounds, b.bounds);
    EXPECT_EQ(a.buckets, b.buckets);
  }
  // And through actual bytes, the way a stats frame travels.
  const Snapshot reparsed =
      snapshot_from_wire(Json::parse(snapshot_to_wire(before).dump()));
  EXPECT_EQ(reparsed.metrics.size(), before.metrics.size());
  const MetricSnapshot* g = reparsed.find("g.depth");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, 2.71828182845904523);
}

TEST(FleetWire, MalformedDocumentsAreRejected) {
  const Snapshot ok =
      snapshot_from_wire(snapshot_to_wire(Snapshot{}));  // empty is fine
  EXPECT_TRUE(ok.metrics.empty());

  const auto reject = [](const std::string& json) {
    EXPECT_THROW((void)snapshot_from_wire(Json::parse(json)),
                 std::runtime_error)
        << json;
  };
  reject("{}");                                             // no magic
  reject(R"({"snapshot":"nope","version":1,"metrics":[]})");  // wrong magic
  reject(R"({"snapshot":"rr-metrics","version":2,"metrics":[]})");
  reject(
      R"({"snapshot":"rr-metrics","version":1,"metrics":[{"n":"x","k":"wat","v":1}]})");
  reject(
      R"({"snapshot":"rr-metrics","version":1,"metrics":[{"n":"","k":"counter","v":1}]})");
  // Histogram with buckets != bounds+1.
  reject(
      R"({"snapshot":"rr-metrics","version":1,"metrics":[{"n":"h","k":"histogram","c":1,"s":1,"b":[1,2],"q":[1,0]}]})");
  // Non-monotone bounds.
  reject(
      R"({"snapshot":"rr-metrics","version":1,"metrics":[{"n":"h","k":"histogram","c":0,"s":0,"b":[2,1],"q":[0,0,0]}]})");
}

// ---------------------------------------------------------------------------
// Merge algebra.
// ---------------------------------------------------------------------------

/// The tentpole property: merging K worker snapshots yields exactly the
/// snapshot of one registry that observed every sample itself --
/// counters, bucket counts, and therefore percentiles, all identical.
TEST(FleetMerge, KPartsEqualOneCombinedRegistry) {
  std::mt19937 rng(20260807);
  const std::vector<double> bounds = latency_bounds_us();
  constexpr int kParts = 5;

  MetricsRegistry combined;
  Snapshot merged;
  for (int k = 0; k < kParts; ++k) {
    MetricsRegistry part;
    const std::uint64_t c = rng() % 100000;
    part.counter("work.done").add(c);
    combined.counter("work.done").add(c);
    Histogram& ph = part.histogram("lat.us", bounds);
    Histogram& ch = combined.histogram("lat.us", bounds);
    const int samples = 50 + static_cast<int>(rng() % 200);
    for (int s = 0; s < samples; ++s) {
      // Integral sample values keep the sums exact, so equality is
      // legitimate (the registry's own exactness contract).
      const double v = static_cast<double>(rng() % 20'000'000) / 2.0;
      ph.observe(v);
      ch.observe(v);
    }
    // A metric only some parts have still merges.
    if (k % 2 == 0) {
      part.counter("odd.parts").add(k + 1);
      combined.counter("odd.parts").add(k + 1);
    }
    merge_into(merged, snapshot_from_wire(snapshot_to_wire(part.snapshot())));
  }

  const Snapshot want = combined.snapshot();
  ASSERT_EQ(merged.metrics.size(), want.metrics.size());
  for (std::size_t i = 0; i < want.metrics.size(); ++i) {
    const MetricSnapshot& a = want.metrics[i];
    const MetricSnapshot& b = merged.metrics[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.ivalue, b.ivalue);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.buckets, b.buckets);
  }
  const MetricSnapshot* hw = want.find("lat.us");
  const MetricSnapshot* hm = merged.find("lat.us");
  ASSERT_NE(hw, nullptr);
  ASSERT_NE(hm, nullptr);
  for (const double p : {50.0, 90.0, 99.0})
    EXPECT_EQ(histogram_percentile(*hw, p), histogram_percentile(*hm, p));
}

TEST(FleetMerge, MismatchesThrow) {
  MetricsRegistry a;
  a.counter("x").inc();
  MetricsRegistry b;
  b.gauge("x").set(1.0);
  Snapshot dst = a.snapshot();
  EXPECT_THROW(merge_into(dst, b.snapshot()), std::runtime_error);

  MetricsRegistry h1;
  h1.histogram("h", {1.0, 2.0}).observe(0.5);
  MetricsRegistry h2;
  h2.histogram("h", {1.0, 3.0}).observe(0.5);
  Snapshot hd = h1.snapshot();
  EXPECT_THROW(merge_into(hd, h2.snapshot()), std::runtime_error);
}

TEST(FleetMerge, FleetSnapshotFoldsDuplicateLabels) {
  MetricsRegistry inc0;
  inc0.counter("done").add(3);
  MetricsRegistry inc1;
  inc1.counter("done").add(4);
  MetricsRegistry coord;
  coord.counter("steals").add(2);

  FleetSnapshot fleet;
  EXPECT_TRUE(fleet.empty());
  fleet.add_part("coord", coord.snapshot());
  fleet.add_part("0", inc0.snapshot());
  fleet.add_part("0", inc1.snapshot());  // respawned incarnation: same label
  EXPECT_FALSE(fleet.empty());
  ASSERT_EQ(fleet.parts.size(), 2u);  // coord + shard 0

  const Snapshot* shard0 = fleet.part("0");
  ASSERT_NE(shard0, nullptr);
  EXPECT_EQ(shard0->find("done")->ivalue, 7u);
  EXPECT_EQ(fleet.merged.find("done")->ivalue, 7u);
  EXPECT_EQ(fleet.merged.find("steals")->ivalue, 2u);
  EXPECT_EQ(fleet.part("nope"), nullptr);

  const Json parts = fleet.parts_to_json();
  ASSERT_NE(parts.find("coord"), nullptr);
  ASSERT_NE(parts.find("0"), nullptr);
  const Snapshot back = snapshot_from_wire(parts.at("0"));
  EXPECT_EQ(back.find("done")->ivalue, 7u);
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

Json dump_and_parse(const FlightRecorder& rec, const std::string& path) {
  EXPECT_TRUE(rec.dump_to(path.c_str()));
  return Json::parse(read_file(path));
}

TEST(FlightRec, RingWrapsAndDumpKeepsTheTail) {
  auto rec = std::make_unique<FlightRecorder>();
  constexpr int kTotal = 600;  // > 2 laps of the 256-slot ring
  for (int i = 0; i < kTotal; ++i)
    rec->record(FlightKind::kMetric, "event " + std::to_string(i),
                static_cast<double>(i));
  EXPECT_EQ(rec->recorded(), static_cast<std::uint64_t>(kTotal));

  const std::string path = tmp_path("flightrec-wrap.json");
  const Json doc = dump_and_parse(*rec, path);
  EXPECT_EQ(doc.at("flightrec").as_string(), "rr-flightrec");
  EXPECT_EQ(doc.at("recorded").as_int(), kTotal);
  EXPECT_EQ(doc.at("dropped").as_int(),
            kTotal - static_cast<int>(FlightRecorder::kSlots));
  const Json& events = doc.at("events");
  ASSERT_EQ(events.size(), FlightRecorder::kSlots);
  // The surviving window is exactly the most recent kSlots, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const int seq = kTotal - static_cast<int>(FlightRecorder::kSlots) +
                    static_cast<int>(i);
    EXPECT_EQ(events.at(i).at("seq").as_int(), seq);
    EXPECT_EQ(events.at(i).at("kind").as_string(), "metric");
    EXPECT_EQ(events.at(i).at("msg").as_string(),
              "event " + std::to_string(seq));
    EXPECT_EQ(events.at(i).at("value").as_double(),
              static_cast<double>(seq));
  }
}

TEST(FlightRec, MessagesTruncateAndEscape) {
  auto rec = std::make_unique<FlightRecorder>();
  rec->record(FlightKind::kMark, std::string(1000, 'x'));
  rec->record(FlightKind::kLog, "quote \" backslash \\ newline \n done");
  const Json doc = dump_and_parse(*rec, tmp_path("flightrec-trunc.json"));
  const Json& events = doc.at("events");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.at(std::size_t{0}).at("msg").as_string(),
            std::string(FlightRecorder::kMsgBytes, 'x'));
  EXPECT_EQ(events.at(std::size_t{1}).at("msg").as_string(),
            "quote \" backslash \\ newline \n done");
}

TEST(FlightRec, DumpOnExitTriggersAtDegradedAndAbove) {
  FlightRecorder& g = FlightRecorder::global();
  g.reset();
  const std::string path = tmp_path("flightrec-exit.json");
  g.set_dump_path(path);
  g.record(FlightKind::kMark, "about to degrade");

  ::unlink(path.c_str());
  EXPECT_EQ(FlightRecorder::dump_on_exit(0), 0);  // clean: no dump
  EXPECT_THROW((void)read_file(path), std::runtime_error);
  EXPECT_EQ(FlightRecorder::dump_on_exit(3), 3);  // degraded: dump
  const Json doc = Json::parse(read_file(path));
  EXPECT_EQ(doc.at("events").size(), 1u);
  g.reset();
}

TEST(FlightRec, Sigusr1DumpsTheLiveRing) {
  FlightRecorder& g = FlightRecorder::global();
  g.reset();
  const std::string path = tmp_path("flightrec-usr1.json");
  g.set_dump_path(path);
  EXPECT_TRUE(g.has_dump_path());
  EXPECT_EQ(g.dump_path(), path);
  g.record(FlightKind::kMark, "poked");
  FlightRecorder::install_sigusr1();
  ::raise(SIGUSR1);  // handler runs synchronously in this thread
  const Json doc = Json::parse(read_file(path));
  EXPECT_EQ(doc.at("flightrec").as_string(), "rr-flightrec");
  bool found = false;
  for (const Json& e : doc.at("events").as_array())
    if (e.at("msg").as_string() == "poked") found = true;
  EXPECT_TRUE(found);
  g.reset();
}

// ---------------------------------------------------------------------------
// Shard-tagged logging feeds both the JSONL sink and the flight ring.
// ---------------------------------------------------------------------------

TEST(LogShard, JsonlRecordsCarryShardFieldAndFeedFlightRing) {
  FlightRecorder& g = FlightRecorder::global();
  g.reset();
  const std::string path = tmp_path("log-shard.jsonl");
  set_log_level(LogLevel::kInfo);  // default kWarn would drop RR_INFO
  set_log_json_path(path);
  set_log_shard(3);
  set_log_prefix("shard 3");
  RR_INFO("fleet line one");
  set_log_shard(-1);
  set_log_prefix("");
  RR_INFO("coordinator line");
  set_log_json_path("");
  set_log_level(LogLevel::kWarn);

  const auto file = read_jsonl(read_file(path));
  ASSERT_EQ(file.records.size(), 2u);
  EXPECT_EQ(file.records[0].at("shard").as_int(), 3);
  EXPECT_EQ(file.records[0].at("msg").as_string(), "fleet line one");
  EXPECT_EQ(file.records[0].at("prefix").as_string(), "shard 3");
  EXPECT_EQ(file.records[1].find("shard"), nullptr);  // unset: absent

  // Both lines also landed in the flight ring via the logger hook.
  const Json doc = dump_and_parse(g, tmp_path("log-shard-flight.json"));
  int logged = 0;
  for (const Json& e : doc.at("events").as_array())
    if (e.at("kind").as_string() == "log") ++logged;
  EXPECT_GE(logged, 2);
  g.reset();
}

}  // namespace
}  // namespace rr::obs
