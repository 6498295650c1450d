// Tests for the observability layer (src/obs, DESIGN.md §10): metric
// semantics (bucket edges, percentile interpolation, exact cross-thread
// merges), exporter formats (JSON, Chrome counters), wall-clock
// profiling spans sharing a trace with sim-time spans, and the run-report
// schema.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/report.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/fileio.hpp"
#include "util/json.hpp"

namespace rr::obs {
namespace {

// --- Counter / Gauge -------------------------------------------------------

TEST(Counter, AccumulatesAndResets) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, CrossThreadMergeIsExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("g");
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.add(-1.25);
  EXPECT_EQ(g.value(), 1.25);
}

// --- Histogram -------------------------------------------------------------

TEST(Histogram, EmptyHistogramHasNanPercentiles) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_TRUE(std::isnan(h.percentile(50.0)));
}

TEST(Histogram, UpperBoundsAreInclusive) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0, 5.0, 10.0});
  h.observe(0.5);   // bucket 0: [0, 1]
  h.observe(1.0);   // bucket 0 still: bounds are inclusive
  h.observe(1.5);   // bucket 1: (1, 2]
  h.observe(10.0);  // bucket 3: (5, 10]
  h.observe(11.0);  // overflow
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 5u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(buckets[4], 1u);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 10.0 + 11.0);
}

TEST(Histogram, SingleSampleResolvesToItsBucketUpperBound) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0, 5.0});
  h.observe(1.5);
  // With one sample every percentile is rank 1, interpolated to the top
  // of its (1, 2] bucket.
  EXPECT_EQ(h.percentile(0.0), 2.0);
  EXPECT_EQ(h.percentile(50.0), 2.0);
  EXPECT_EQ(h.percentile(100.0), 2.0);
}

TEST(Histogram, PercentilesInterpolateWithinABucket) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {10.0});
  for (int i = 0; i < 10; ++i) h.observe(1.0);  // all in [0, 10]
  // rank(p) = p/100 * 9 + 1, linearly mapped across [0, 10].
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 5.5);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
}

TEST(Histogram, OverflowSamplesClampToLastBound) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0});
  h.observe(100.0);
  h.observe(200.0);
  EXPECT_EQ(h.percentile(50.0), 2.0);
  EXPECT_EQ(h.percentile(99.0), 2.0);
}

TEST(Histogram, CrossThreadMergeIsExact) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", latency_bounds_us());
  constexpr int kThreads = 4;
  constexpr int kSamples = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (int i = 1; i <= kSamples; ++i) h.observe(static_cast<double>(i));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kSamples);
  // Integer samples sum exactly (well below 2^53), so the sharded sums
  // merge deterministically: 4 * (1000 * 1001 / 2).
  EXPECT_EQ(h.sum(), 4.0 * 500'500.0);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : h.bucket_counts()) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count());
}

TEST(Histogram, LatencyBoundsAre125Ladder) {
  const auto bounds = latency_bounds_us();
  ASSERT_EQ(bounds.size(), 21u);
  EXPECT_EQ(bounds.front(), 1.0);
  EXPECT_EQ(bounds[1], 2.0);
  EXPECT_EQ(bounds[2], 5.0);
  EXPECT_EQ(bounds.back(), 5e6);
  for (std::size_t i = 1; i < bounds.size(); ++i)
    EXPECT_GT(bounds[i], bounds[i - 1]);
}

// --- Registry --------------------------------------------------------------

TEST(MetricsRegistry, LookupIsFindOrCreate) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  Histogram& h2 = reg.histogram("h", {1.0, 2.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.counter("zebra").inc();
  reg.gauge("alpha").set(1.0);
  reg.histogram("mid", {1.0}).observe(0.5);
  const Snapshot s = reg.snapshot();
  ASSERT_EQ(s.metrics.size(), 3u);
  EXPECT_EQ(s.metrics[0].name, "alpha");
  EXPECT_EQ(s.metrics[1].name, "mid");
  EXPECT_EQ(s.metrics[2].name, "zebra");
  EXPECT_EQ(s.find("zebra")->ivalue, 1u);
  EXPECT_EQ(s.find("missing"), nullptr);
  // Snapshot percentile matches the live histogram's.
  EXPECT_EQ(histogram_percentile(*s.find("mid"), 50.0),
            reg.histogram("mid", {1.0}).percentile(50.0));
}

// --- Exporters -------------------------------------------------------------

TEST(Export, JsonSnapshotShape) {
  MetricsRegistry reg;
  reg.counter("events").add(7);
  reg.gauge("depth").set(3.5);
  Histogram& h = reg.histogram("lat", {1.0, 10.0});
  h.observe(0.5);
  h.observe(4.0);
  const Json j = to_json(reg.snapshot());
  EXPECT_EQ(j.at("events").at("type").as_string(), "counter");
  EXPECT_EQ(j.at("events").at("value").as_int(), 7);
  EXPECT_EQ(j.at("depth").at("type").as_string(), "gauge");
  EXPECT_EQ(j.at("depth").at("value").as_double(), 3.5);
  const Json& lat = j.at("lat");
  EXPECT_EQ(lat.at("type").as_string(), "histogram");
  EXPECT_EQ(lat.at("count").as_int(), 2);
  EXPECT_EQ(lat.at("sum").as_double(), 4.5);
  EXPECT_EQ(lat.at("bounds").size(), 2u);
  EXPECT_EQ(lat.at("buckets").size(), 3u);
  EXPECT_TRUE(lat.find("p50") != nullptr);
  // Round-trips through the parser (numbers are %.17g bit-exact).
  EXPECT_EQ(Json::parse(j.dump()).at("lat").at("sum").as_double(), 4.5);
}

TEST(Export, CounterEventsLandOnWallTrack) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(1.5);
  reg.histogram("h", {1.0}).observe(0.5);
  sim::TraceRecorder tr;
  export_counters(reg.snapshot(), tr, TimePoint::from_ps(1000));
  EXPECT_EQ(tr.counter_samples(), 3u);
  EXPECT_EQ(tr.last_counter("c", "wall/metrics"), 5.0);
  EXPECT_EQ(tr.last_counter("g", "wall/metrics"), 1.5);
  EXPECT_EQ(tr.last_counter("h.count", "wall/metrics"), 1.0);
}

TEST(Export, SnapshotSimulatorPublishesQueueGauges) {
  sim::Simulator sim;
  sim.schedule(Duration::nanoseconds(1), [] {});
  const auto id = sim.schedule(Duration::nanoseconds(2), [] {});
  sim.cancel(id);
  sim.run();
  MetricsRegistry reg;
  snapshot_simulator(sim, reg, "des", 2.0);
  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.find("des.events_run")->value, 1.0);
  EXPECT_EQ(s.find("des.scheduled_total")->value, 2.0);
  EXPECT_EQ(s.find("des.pending")->value, 0.0);
  EXPECT_EQ(s.find("des.events_per_sec")->value, 0.5);
}

// --- ProfSpan / WallTrace --------------------------------------------------

TEST(Prof, SpanFeedsHistogramAndWallTrack) {
  sim::TraceRecorder tr;
  WallTrace sink;
  sink.attach(&tr, "wall/test");
  MetricsRegistry reg;
  Histogram& h = reg.histogram("span.us", latency_bounds_us());
  { ProfSpan span("work", &h, &sink); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(tr.size(), 1u);
  EXPECT_EQ(tr.open_spans(), 0u);
  std::ostringstream os;
  tr.write_json(os);
  EXPECT_NE(os.str().find("wall/test"), std::string::npos);
  EXPECT_NE(os.str().find("work"), std::string::npos);
}

TEST(Prof, StopIsIdempotent) {
  WallTrace detached;  // not attached: spans are dropped, timing still works
  ProfSpan span("x", nullptr, &detached);
  const double a = span.stop();
  const double b = span.stop();
  EXPECT_GE(a, 0.0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(span.elapsed_us(), a);
}

TEST(Prof, ConcurrentSpansSerializeIntoOneRecorder) {
  sim::TraceRecorder tr;
  WallTrace sink;
  sink.attach(&tr, "wall/mt");
  constexpr int kThreads = 4;
  constexpr int kSpans = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&sink] {
      for (int i = 0; i < kSpans; ++i)
        ProfSpan span("s", nullptr, &sink);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(tr.size(), static_cast<std::size_t>(kThreads) * kSpans);
  EXPECT_EQ(tr.open_spans(), 0u);
}

TEST(Prof, WallAndSimSpansShareOneWellFormedTrace) {
  sim::TraceRecorder tr;
  WallTrace sink;
  sink.attach(&tr);  // default "wall/prof" track
  { ProfSpan span("wall work", nullptr, &sink); }
  const auto id = tr.begin("sim work", "sim/link0", TimePoint::from_ps(0));
  tr.end(id, TimePoint::from_ps(5'000'000));
  std::ostringstream os;
  tr.write_json(os);
  const Json j = Json::parse(os.str());  // must be valid JSON end to end
  const Json& events = j.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  bool saw_wall = false, saw_sim = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    if (const Json* args = e.find("args"); args && args->find("name")) {
      const std::string& track = args->at("name").as_string();
      if (track == "wall/prof") saw_wall = true;
      if (track == "sim/link0") saw_sim = true;
    }
  }
  EXPECT_TRUE(saw_wall);
  EXPECT_TRUE(saw_sim);
}

TEST(Prof, WallNowIsMonotonic) {
  const TimePoint a = wall_now();
  const TimePoint b = wall_now();
  EXPECT_LE(a.ps(), b.ps());
}

// --- RunReport -------------------------------------------------------------

TEST(RunReport, JsonMatchesSchema) {
  RunInfo info;
  info.name = "unit";
  info.campaign = "00000000deadbeef";
  info.params = Json::object();
  info.params.set("points", 3);
  info.seed = "42";
  info.threads = 2;
  RunReport rep(std::move(info));
  MetricsRegistry reg;
  reg.counter("n").add(9);
  rep.add_snapshot(reg.snapshot());
  const std::vector<double> samples{1.0, 2.0, 3.0, 4.0};
  rep.add_percentiles("lat_s", samples);
  rep.set_extra("speedup", 3.25);

  const Json j = rep.to_json();
  EXPECT_EQ(j.at("report").as_string(), "rr-run-report");
  EXPECT_EQ(j.at("version").as_int(), 1);
  EXPECT_EQ(j.at("name").as_string(), "unit");
  EXPECT_EQ(j.at("campaign").as_string(), "00000000deadbeef");
  EXPECT_EQ(j.at("provenance").at("seed").as_string(), "42");
  EXPECT_EQ(j.at("provenance").at("threads").as_int(), 2);
  EXPECT_FALSE(j.at("provenance").at("git").as_string().empty());
  EXPECT_EQ(j.at("params").at("points").as_int(), 3);
  EXPECT_EQ(j.at("metrics").at("n").at("value").as_int(), 9);
  const Json& lat = j.at("percentiles").at("lat_s");
  EXPECT_EQ(lat.at("count").as_int(), 4);
  EXPECT_EQ(lat.at("min").as_double(), 1.0);
  EXPECT_EQ(lat.at("max").as_double(), 4.0);
  EXPECT_EQ(j.at("extra").at("speedup").as_double(), 3.25);
  // Deterministic body: no wall-clock stamps anywhere in the schema.
  EXPECT_EQ(j.find("timestamp"), nullptr);
}

TEST(RunReport, WriteEmitsJsonAndMarkdownSiblings) {
  EXPECT_EQ(RunReport::markdown_path_for("a/b/report.json"), "a/b/report.md");
  EXPECT_EQ(RunReport::markdown_path_for("report"), "report.md");

  RunInfo info;
  info.name = "unit";
  RunReport rep(std::move(info));
  MetricsRegistry reg;
  reg.counter("n").inc();
  rep.add_snapshot(reg.snapshot());
  const std::string path =
      ::testing::TempDir() + "/obs_run_report_test.json";
  ASSERT_TRUE(rep.write(path));
  const Json back = Json::parse(read_file(path));
  EXPECT_EQ(back.at("report").as_string(), "rr-run-report");
  EXPECT_EQ(back.at("metrics").at("n").at("value").as_int(), 1);
  const std::string md = read_file(RunReport::markdown_path_for(path));
  EXPECT_NE(md.find("unit"), std::string::npos);
  EXPECT_NE(md.find("| metric"), std::string::npos);
  std::remove(path.c_str());
  std::remove(RunReport::markdown_path_for(path).c_str());
}

}  // namespace
}  // namespace rr::obs
