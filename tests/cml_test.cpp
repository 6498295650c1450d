#include <gtest/gtest.h>

#include <set>

#include "topo/fat_tree.hpp"
#include "arch/calibration.hpp"
#include "cml/cml.hpp"

namespace rr::cml {
namespace {

namespace cal = rr::arch::cal;

const topo::FatTree& small_topo() {
  static const topo::FatTree t = [] {
    topo::FatTreeParams p;
    p.cu_count = 2;
    return topo::FatTree::build(p);
  }();
  return t;
}

struct World {
  sim::Simulator sim;
  CmlWorld cml;
  explicit World(CmlConfig cfg) : cml(sim, small_topo(), cfg) {}
};

// ---------------------------------------------------------------------------
// Rank geometry
// ---------------------------------------------------------------------------

TEST(CmlWorld, RankLayoutMatchesRoadrunnerNode) {
  World w(CmlConfig{2, 4, 8});
  const arch::Mapping m = w.cml.mapping();
  EXPECT_EQ(w.cml.size(), 64);
  EXPECT_EQ(m.node_of(0), 0);
  EXPECT_EQ(m.node_of(31), 0);
  EXPECT_EQ(m.node_of(32), 1);
  EXPECT_EQ(m.socket_of(7), 0);
  EXPECT_EQ(m.socket_of(8), 1);
  EXPECT_EQ(m.socket_of(40), 1);  // Cell 1 of node 1
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

TEST(CmlPointToPoint, PayloadArrivesIntact) {
  World w(CmlConfig{1, 1, 4});
  std::vector<double> got;
  const auto done = w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    if (ctx.rank() == 0) {
      std::vector<double> payload{1.5, 2.5, 3.5};
      co_await ctx.send(3, 7, std::move(payload));
    } else if (ctx.rank() == 3) {
      const Message m = co_await ctx.recv(0, 7);
      got = m.payload;
      EXPECT_EQ(m.src, 0);
      EXPECT_EQ(m.tag, 7);
    }
    co_return;
  });
  EXPECT_EQ(done, 4u);
  EXPECT_EQ(got, (std::vector<double>{1.5, 2.5, 3.5}));
}

TEST(CmlPointToPoint, FifoOrderPerSenderAndTag) {
  World w(CmlConfig{1, 1, 2});
  std::vector<double> order;
  w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        std::vector<double> v(1, double(i));
        co_await ctx.send(1, 0, std::move(v));
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        const Message m = co_await ctx.recv(0, 0);
        order.push_back(m.payload[0]);
      }
    }
    co_return;
  });
  EXPECT_EQ(order, (std::vector<double>{0, 1, 2, 3, 4}));
}

TEST(CmlPointToPoint, TagMatchingStashesOutOfOrder) {
  World w(CmlConfig{1, 1, 2});
  std::vector<int> tags;
  w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    if (ctx.rank() == 0) {
      std::vector<double> v1(1, 1.0);
      co_await ctx.send(1, 11, std::move(v1));
      std::vector<double> v2(1, 2.0);
      co_await ctx.send(1, 22, std::move(v2));
    } else {
      // Receive in reverse tag order: the tag-11 message must be stashed.
      const Message b = co_await ctx.recv(0, 22);
      const Message a = co_await ctx.recv(0, 11);
      tags = {b.tag, a.tag};
    }
    co_return;
  });
  EXPECT_EQ(tags, (std::vector<int>{22, 11}));
}

TEST(CmlPointToPoint, WildcardReceivesAnything) {
  World w(CmlConfig{1, 1, 3});
  std::set<int> sources;
  w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    if (ctx.rank() == 2) {
      for (int i = 0; i < 2; ++i) {
        const Message m = co_await ctx.recv(kAnySource, kAnyTag);
        sources.insert(m.src);
      }
    } else {
      std::vector<double> v(1, double(ctx.rank()));
      co_await ctx.send(2, ctx.rank(), std::move(v));
    }
    co_return;
  });
  EXPECT_EQ(sources, (std::set<int>{0, 1}));
}

TEST(CmlPointToPoint, NonMatchingWakeKeepsItsPlace) {
  // Three equal EIB messages arrive at the same picosecond, in send
  // order: one rank 2 is not waiting for, the one rank 4 waits for, the
  // one rank 2 waits for.  The first still wakes rank 2 in a zero-delay
  // event, queued before rank 4's, in which rank 2 finds its message.
  // Matching at delivery would drop that event and wake rank 4 first.
  World w(CmlConfig{1, 1, 5});
  std::vector<Rank> log;
  const auto done = w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    switch (ctx.rank()) {
      case 0: co_await ctx.send(2, 9, std::vector<double>(1, 1.0)); break;
      case 1: co_await ctx.send(4, 1, std::vector<double>(1, 1.0)); break;
      case 3: co_await ctx.send(2, 1, std::vector<double>(1, 1.0)); break;
      case 2: co_await ctx.recv(3, 1); log.push_back(2); break;
      case 4: co_await ctx.recv(1, 1); log.push_back(4); break;
    }
  });
  EXPECT_EQ(done, 5u);
  EXPECT_EQ(log, (std::vector<Rank>{2, 4}));
}

TEST(CmlPointToPoint, DeadlockIsDetectedNotHung) {
  World w(CmlConfig{1, 1, 2});
  // Rank 1 waits for a message nobody sends.
  const auto done = w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    if (ctx.rank() == 1) co_await ctx.recv(0, 99);
    co_return;
  });
  EXPECT_EQ(done, 1u);  // rank 0 finished; rank 1 is blocked
}

struct SendOutcome {
  std::int64_t ps = 0;
  std::uint64_t legs = 0;
  std::uint64_t bytes = 0;
  std::size_t received_doubles = 0;
};

/// Rank 0 sends one `doubles`-long message to `dst`, as a payload or by
/// size only, while a second sender on rank 1 contends for the same links.
SendOutcome one_send(Rank dst, std::size_t doubles, bool sized) {
  World w(CmlConfig{2, 4, 8});
  SendOutcome out;
  w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    if (ctx.rank() == 0 || ctx.rank() == 1) {
      if (sized)
        co_await ctx.send_sized(dst, ctx.rank(), doubles);
      else
        co_await ctx.send(dst, ctx.rank(), std::vector<double>(doubles, 1.0));
    } else if (ctx.rank() == dst) {
      const Message m = co_await ctx.recv(0, 0);
      EXPECT_EQ(m.src, 0);
      EXPECT_EQ(m.tag, 0);
      out.received_doubles = m.payload.size();
      co_await ctx.recv(1, 1);
    }
    co_return;
  });
  out.ps = (w.sim.now() - TimePoint::origin()).ps();
  out.legs = w.cml.network().messages_sent();
  out.bytes = w.cml.network().bytes_sent();
  return out;
}

TEST(CmlPointToPoint, SendSizedTimesLikeAPayloadOfThatSize) {
  struct Path {
    Rank dst;
    std::uint64_t legs;  ///< per message
  };
  // Same Cell (EIB), same node (DaCS up and down), other node (+ IB).
  for (const Path path : {Path{7, 1}, Path{15, 2}, Path{63, 3}}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{600}, std::size_t{5000}}) {
      const SendOutcome full = one_send(path.dst, n, false);
      const SendOutcome sized = one_send(path.dst, n, true);
      EXPECT_EQ(sized.ps, full.ps) << "dst " << path.dst << ", " << n << " doubles";
      EXPECT_EQ(sized.legs, full.legs) << "dst " << path.dst << ", " << n << " doubles";
      EXPECT_EQ(sized.bytes, full.bytes) << "dst " << path.dst << ", " << n << " doubles";
      EXPECT_EQ(full.legs, 2 * path.legs);
      EXPECT_EQ(full.bytes, full.legs * message_bytes(std::vector<double>(n)).b());
      EXPECT_EQ(full.received_doubles, n);
      EXPECT_EQ(sized.received_doubles, 0u);  // the envelope only
    }
  }
}

// Negative tags are the collectives' (barrier -1000 - round, broadcast
// -2000, reduce -3000): a user message with one could be consumed by a
// collective.  Sources outside the world would wait forever.
TEST(CmlPointToPointDeath, UserSendWithANegativeTagIsRejected) {
  EXPECT_DEATH(
      {
        World w(CmlConfig{1, 1, 2});
        w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
          if (ctx.rank() == 0) co_await ctx.send(1, -2000, {});
        });
      },
      "Precondition violation: \\(tag >= 0\\)");
}

TEST(CmlPointToPointDeath, SizedSendWithANegativeTagIsRejected) {
  EXPECT_DEATH(
      {
        World w(CmlConfig{1, 1, 2});
        w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
          if (ctx.rank() == 0) co_await ctx.send_sized(1, -1, 8);
        });
      },
      "Precondition violation: \\(tag >= 0\\)");
}

TEST(CmlPointToPointDeath, ReceiveWithATagBelowAnyTagIsRejected) {
  EXPECT_DEATH(
      {
        World w(CmlConfig{1, 1, 2});
        w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
          if (ctx.rank() == 1) co_await ctx.recv(0, -1000);
        });
      },
      "Precondition violation: \\(tag >= kAnyTag\\)");
}

TEST(CmlPointToPointDeath, ReceiveFromOutsideTheWorldIsRejected) {
  for (const Rank src : {2, -2}) {
    EXPECT_DEATH(
        {
          World w(CmlConfig{1, 1, 2});
          w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
            if (ctx.rank() == 1) co_await ctx.recv(src, 0);
          });
        },
        "Precondition violation: \\(src == kAnySource")
        << src;
  }
}

TEST(CmlPointToPointDeath, SecondWaitingReceiveOnOneRankIsRejected) {
  // Two receives can wait on one rank at once only if two tasks share
  // one CmlContext.
  EXPECT_DEATH(
      {
        World w(CmlConfig{1, 1, 2});
        const CmlContext ctx(w.cml, 1);
        const auto receive = [](CmlContext c) -> sim::Task<void> { co_await c.recv(0, 0); };
        sim::TaskRegistry reg(w.sim);
        reg.spawn(receive(ctx));
        reg.spawn(receive(ctx));
      },
      "Precondition violation: \\(ep.waiter == nullptr\\)");
}

// ---------------------------------------------------------------------------
// Timing tiers: EIB < intranode cross-cell < internode
// ---------------------------------------------------------------------------

double pingpong_us(World& w, Rank a, Rank b) {
  double elapsed = 0.0;
  w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    if (ctx.rank() == a) {
      const TimePoint t0 = w.sim.now();
      co_await ctx.send(b, 1, std::vector<double>());
      co_await ctx.recv(b, 2);
      elapsed = (w.sim.now() - t0).us();
    } else if (ctx.rank() == b) {
      co_await ctx.recv(a, 1);
      co_await ctx.send(a, 2, std::vector<double>());
    }
    co_return;
  });
  return elapsed;
}

TEST(CmlTiming, CommunicationHierarchyOrdering) {
  World same_cell(CmlConfig{2, 4, 8});
  const double eib = pingpong_us(same_cell, 0, 7);        // same Cell
  World cross_cell(CmlConfig{2, 4, 8});
  const double dacs = pingpong_us(cross_cell, 0, 15);     // same node, other Cell
  World cross_node(CmlConfig{2, 4, 8});
  const double ib = pingpong_us(cross_node, 0, 63);       // different node
  EXPECT_LT(eib, dacs);
  EXPECT_LT(dacs, ib);
  // Intra-socket round trip ~ 2 x 0.272 us (Section V.C).
  EXPECT_NEAR(eib, 2 * cal::kAnchorCmlIntraSocketLatency.us(), 0.2);
  // Internode one-way ~ 8.78 us (Fig. 6) -> round trip ~ 17.6 us.
  EXPECT_NEAR(ib, 2 * cal::kAnchorCellToCellLatency.us(),
              2 * cal::kAnchorCellToCellLatency.us() * 0.15);
}

TEST(CmlTiming, BestCasePcieShrinksInternodeLatency) {
  World early(CmlConfig{2, 4, 8, false});
  World best(CmlConfig{2, 4, 8, true});
  EXPECT_LT(pingpong_us(best, 0, 63), pingpong_us(early, 0, 63));
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

TEST(CmlCollectives, BarrierSynchronizesAllRanks) {
  World w(CmlConfig{1, 2, 4});
  const int n = w.cml.size();
  std::vector<double> arrive_us(n), leave_us(n);
  const auto done = w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    // Stagger arrivals: rank r works r microseconds before the barrier.
    co_await sim::Delay{w.sim, Duration::microseconds(ctx.rank())};
    arrive_us[ctx.rank()] = w.sim.now().us();
    co_await ctx.barrier();
    leave_us[ctx.rank()] = w.sim.now().us();
    co_return;
  });
  EXPECT_EQ(done, static_cast<std::size_t>(n));
  const double last_arrival = *std::max_element(arrive_us.begin(), arrive_us.end());
  for (int r = 0; r < n; ++r)
    EXPECT_GE(leave_us[r], last_arrival) << "rank " << r << " left early";
}

TEST(CmlCollectives, BackToBackBarriersDoNotInterfere) {
  World w(CmlConfig{1, 1, 8});
  int completions = 0;
  const auto done = w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) co_await ctx.barrier();
    ++completions;
    co_return;
  });
  EXPECT_EQ(done, 8u);
  EXPECT_EQ(completions, 8);
}

TEST(CmlCollectives, BroadcastDeliversRootData) {
  World w(CmlConfig{1, 2, 8});
  std::vector<std::vector<double>> got(w.cml.size());
  w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    std::vector<double> data;
    if (ctx.rank() == 3) data = {3.25, -1.0};
    got[ctx.rank()] = co_await ctx.broadcast(3, data);
    co_return;
  });
  for (const auto& g : got) EXPECT_EQ(g, (std::vector<double>{3.25, -1.0}));
}

TEST(CmlCollectives, AllreduceSumsContributions) {
  World w(CmlConfig{1, 2, 4});
  const int n = w.cml.size();
  std::vector<double> results(n);
  w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    std::vector<double> contrib(1, double(ctx.rank() + 1));
    const auto out = co_await ctx.allreduce_sum(std::move(contrib));
    results[ctx.rank()] = out[0];
    co_return;
  });
  const double expected = n * (n + 1) / 2.0;
  for (double r : results) EXPECT_DOUBLE_EQ(r, expected);
}

TEST(CmlCollectives, AllreduceElementwise) {
  World w(CmlConfig{1, 1, 4});
  std::vector<double> result;
  w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    std::vector<double> contrib{1.0, double(ctx.rank())};
    result = co_await ctx.allreduce_sum(std::move(contrib));
    co_return;
  });
  EXPECT_EQ(result, (std::vector<double>{4.0, 6.0}));
}

// ---------------------------------------------------------------------------
// RPC (Section V.C: malloc on the PPE, file I/O on the Opteron)
// ---------------------------------------------------------------------------

TEST(CmlRpc, PpeRpcReturnsResultAndChargesTime) {
  World w(CmlConfig{1, 1, 1});
  std::vector<double> result;
  double elapsed = 0.0;
  w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    const TimePoint t0 = w.sim.now();
    result = co_await ctx.rpc_ppe([] { return std::vector<double>{42.0}; });
    elapsed = (w.sim.now() - t0).us();
    co_return;
  });
  EXPECT_EQ(result, (std::vector<double>{42.0}));
  EXPECT_GT(elapsed, 1.0);  // two local legs + host time
  EXPECT_LT(elapsed, 10.0);
}

TEST(CmlRpc, OpteronRpcIsSlowerThanPpeRpc) {
  World w(CmlConfig{1, 1, 1});
  double ppe_us = 0.0, opteron_us = 0.0;
  w.cml.run([&](CmlContext ctx) -> sim::Task<void> {
    TimePoint t0 = w.sim.now();
    co_await ctx.rpc_ppe([] { return std::vector<double>{}; });
    ppe_us = (w.sim.now() - t0).us();
    t0 = w.sim.now();
    co_await ctx.rpc_opteron([] { return std::vector<double>{}; });
    opteron_us = (w.sim.now() - t0).us();
    co_return;
  });
  EXPECT_GT(opteron_us, ppe_us + 2 * 3.0);  // two DaCS crossings dominate
}

}  // namespace
}  // namespace rr::cml
