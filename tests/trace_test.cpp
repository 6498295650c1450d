#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "topo/fat_tree.hpp"
#include "cml/cml.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"

namespace rr::sim {
namespace {

TEST(TraceRecorder, SpansAndInstantsAreCounted) {
  TraceRecorder tr;
  const auto a = tr.begin("xfer", "link0", TimePoint::from_ps(1000));
  tr.instant("tick", "clock", TimePoint::from_ps(1500));
  EXPECT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr.open_spans(), 1u);
  tr.end(a, TimePoint::from_ps(3000));
  EXPECT_EQ(tr.open_spans(), 0u);
}

TEST(TraceRecorder, OutOfOrderEndIsAllowed) {
  TraceRecorder tr;
  const auto a = tr.begin("first", "t", TimePoint::from_ps(0));
  const auto b = tr.begin("second", "t", TimePoint::from_ps(10));
  tr.end(b, TimePoint::from_ps(20));
  tr.end(a, TimePoint::from_ps(30));
  EXPECT_EQ(tr.open_spans(), 0u);
}

TEST(TraceRecorder, JsonHasChromeTraceShape) {
  TraceRecorder tr;
  const auto a = tr.begin("dacs 4096B", "pcie/node0.cell1", TimePoint::from_ps(2'000'000));
  tr.end(a, TimePoint::from_ps(5'000'000));
  tr.instant("barrier", "ranks", TimePoint::from_ps(6'000'000));
  std::ostringstream os;
  tr.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);   // complete span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);   // instant
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);   // track metadata
  EXPECT_NE(json.find("pcie/node0.cell1"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3"), std::string::npos);      // 3 us
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceRecorder, CounterSamplesEmitChromeCounterEvents) {
  TraceRecorder tr;
  tr.counter("queue_depth", "des", TimePoint::from_ps(1'000'000), 3.0);
  tr.counter("queue_depth", "des", TimePoint::from_ps(2'000'000), 5.0);
  tr.counter("tombstones", "des", TimePoint::from_ps(2'000'000), 1.0);
  EXPECT_EQ(tr.counter_samples(), 3u);
  EXPECT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.open_spans(), 0u);  // counters are not spans
  EXPECT_DOUBLE_EQ(tr.last_counter("queue_depth", "des"), 5.0);
  EXPECT_DOUBLE_EQ(tr.last_counter("tombstones", "des"), 1.0);
  EXPECT_TRUE(std::isnan(tr.last_counter("missing", "des")));
  std::ostringstream os;
  tr.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"queue_depth\":5}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"tombstones\":1}"), std::string::npos);
}

TEST(TraceRecorder, TimestampsKeepPicosecondPrecision) {
  // Times print as exact decimal microseconds of the picosecond axis, not
  // in the stream's 6 significant digits ("1.23457e+06"); counter values
  // round-trip like every other JSON number.
  TraceRecorder tr;
  const auto a = tr.begin("long", "t", TimePoint::from_ps(1'234'567'891'000));
  tr.end(a, TimePoint::from_ps(1'234'567'891'000 + 250'000'000'001));
  tr.instant("first", "t", TimePoint::from_ps(2'000'001'000'000));
  tr.instant("second", "t", TimePoint::from_ps(2'000'004'000'000));
  tr.counter("ratio", "t", TimePoint::from_ps(0), 0.1);
  std::ostringstream os;
  tr.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ts\":1234567.891,\"dur\":250000.000001,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ts\":2000001,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":2000004,"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"ratio\":0.10000000000000001}"), std::string::npos)
      << json;
  EXPECT_EQ(Json::parse(json).at("traceEvents").size(), 5u);  // meta + 4
}

TEST(TraceRecorder, NamedRowsBecomeProcessesAndFlowsPairAcrossThem) {
  // One recorder holds a whole fleet: each named row is its own pid with
  // a process_name record, a span lands on its track's row, and a flow's
  // two ends pair by the id the recorder assigned, across rows.
  TraceRecorder tr;
  tr.set_row("frames/coord", "coord");
  tr.set_row("frames/shard0", "shard0");
  tr.set_row("wall/shard1.1", "shard1.1");
  tr.flow("run -> shard 0", "frames/coord", TimePoint::from_ps(1'000'000),
          "frames/shard0", TimePoint::from_ps(2'500'000));
  const auto span =
      tr.begin("chunk x4", "wall/shard1.1", TimePoint::from_ps(1'000'000));
  tr.end(span, TimePoint::from_ps(9'000'000));
  tr.instant("unrowed", "misc", TimePoint::from_ps(0));
  std::ostringstream os;
  tr.write_json(os);
  const Json doc = Json::parse(os.str());

  std::map<std::string, std::int64_t> rows;  // process_name -> pid
  std::map<std::string, std::int64_t> track_pid;
  std::int64_t s_id = -1, s_pid = -1, f_id = -2, f_pid = -1, x_pid = -1,
               i_pid = -1;
  double s_ts = -1, f_ts = -1;
  for (const Json& e : doc.at("traceEvents").as_array()) {
    const std::string ph = e.at("ph").as_string();
    const std::int64_t pid = e.at("pid").as_int();
    if (ph == "M" && e.at("name").as_string() == "process_name") {
      rows[e.at("args").at("name").as_string()] = pid;
    } else if (ph == "M") {
      track_pid[e.at("args").at("name").as_string()] = pid;
    } else if (ph == "s") {
      EXPECT_EQ(e.at("cat").as_string(), "frame");
      s_id = e.at("id").as_int();
      s_pid = pid;
      s_ts = e.at("ts").as_double();
    } else if (ph == "f") {
      EXPECT_EQ(e.at("bp").as_string(), "e");
      f_id = e.at("id").as_int();
      f_pid = pid;
      f_ts = e.at("ts").as_double();
    } else if (ph == "X") {
      x_pid = pid;
    } else if (ph == "i") {
      i_pid = pid;
    }
  }
  // Rows are pids 1.. in naming order; an unrowed track gets the next.
  const std::map<std::string, std::int64_t> want{
      {"coord", 1}, {"shard0", 2}, {"shard1.1", 3}};
  EXPECT_EQ(rows, want);
  EXPECT_EQ(track_pid.at("frames/coord"), 1);
  EXPECT_EQ(track_pid.at("misc"), 4);
  EXPECT_EQ(s_id, f_id);
  EXPECT_EQ(s_pid, 1);  // sent on the coordinator's row
  EXPECT_EQ(f_pid, 2);  // received on shard0's row
  EXPECT_EQ(s_ts, 1.0);
  EXPECT_EQ(f_ts, 2.5);
  EXPECT_EQ(x_pid, 3);  // the span sits on its incarnation's row
  EXPECT_EQ(i_pid, 4);
}

TEST(TraceRecorder, RecorderWithoutRowsWritesOnePidAndNoProcessNames) {
  TraceRecorder tr;
  tr.flow("ping", "a", TimePoint::from_ps(0), "b", TimePoint::from_ps(10));
  const auto span = tr.begin("work", "c", TimePoint::from_ps(0));
  tr.end(span, TimePoint::from_ps(5));
  std::ostringstream os;
  tr.write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("process_name"), std::string::npos);
  const Json doc = Json::parse(json);
  ASSERT_EQ(doc.at("traceEvents").size(), 6u);  // 3 thread_name + 3 events
  for (const Json& e : doc.at("traceEvents").as_array())
    EXPECT_EQ(e.at("pid").as_int(), 1) << e.dump();
}

TEST(TraceRecorder, TakeSpansHandsOverClosedSpansAndEmptiesTheRecorder) {
  TraceRecorder tr;
  const auto a = tr.begin("first", "wall", TimePoint::from_ps(1000));
  tr.end(a, TimePoint::from_ps(3000));
  const auto b = tr.begin("second", "wall", TimePoint::from_ps(4000));
  tr.end(b, TimePoint::from_ps(4000));
  const auto spans = tr.take_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "first");
  EXPECT_EQ(spans[0].start.ps(), 1000);
  EXPECT_EQ(spans[0].end.ps(), 3000);
  EXPECT_EQ(spans[1].name, "second");
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_TRUE(tr.take_spans().empty());
}

TEST(TraceRecorder, EscapesQuotesInNames) {
  TraceRecorder tr;
  tr.instant("say \"hi\"", "t", TimePoint::from_ps(0));
  std::ostringstream os;
  tr.write_json(os);
  EXPECT_NE(os.str().find("say \\\"hi\\\""), std::string::npos);
}

TEST(TraceRecorder, EscapedOutputIsParseableJson) {
  // Quotes, backslashes, and control characters in span/track/counter
  // names must all come out as legal JSON (shared util/json escaper).
  TraceRecorder tr;
  const auto id =
      tr.begin("span\nwith\tctl\x01", "track\\\"q", TimePoint::from_ps(0));
  tr.end(id, TimePoint::from_ps(1000));
  tr.instant("bell\x07", "track\\\"q", TimePoint::from_ps(500));
  tr.counter("depth\x02", "track\\\"q", TimePoint::from_ps(600), 4.0);
  std::ostringstream os;
  tr.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
  const Json parsed = Json::parse(json);  // throws if any escape is broken
  EXPECT_EQ(parsed.at("traceEvents").size(), 4u);  // meta + span+instant+ctr
}

TEST(TraceRecorder, CmlRunProducesLinkSpans) {
  topo::FatTreeParams tp;
  tp.cu_count = 1;
  const topo::FatTree topo = topo::FatTree::build(tp);
  Simulator simulator;
  cml::CmlConfig config;
  config.nodes = 2;
  config.cells_per_node = 2;
  config.spes_per_cell = 2;
  cml::CmlWorld world(simulator, topo, config);
  TraceRecorder tr;
  world.network().attach_trace(&tr);

  world.run([&](cml::CmlContext ctx) -> sim::Task<void> {
    if (ctx.rank() == 0) {
      std::vector<double> v(4, 1.0);
      co_await ctx.send(world.size() - 1, 1, std::move(v));  // cross-node
    } else if (ctx.rank() == world.size() - 1) {
      co_await ctx.recv(0, 1);
    }
    co_return;
  });

  EXPECT_GE(tr.size(), 3u);  // dacs up, ib, dacs down at least
  EXPECT_EQ(tr.open_spans(), 0u);
  std::ostringstream os;
  tr.write_json(os);
  EXPECT_NE(os.str().find("ib/node0"), std::string::npos);
  EXPECT_NE(os.str().find("pcie/node0"), std::string::npos);
}

}  // namespace
}  // namespace rr::sim
