#include <gtest/gtest.h>

#include "arch/calibration.hpp"
#include "cml/cml.hpp"
#include "dacs/dacs.hpp"
#include "topo/fat_tree.hpp"

namespace rr::dacs {
namespace {

namespace cal = rr::arch::cal;

const topo::FatTree& one_cu() {
  static const topo::FatTree tree = [] {
    topo::TopologyParams p;
    p.cu_count = 1;
    return topo::FatTree::build(p);
  }();
  return tree;
}

struct Fixture {
  sim::Simulator sim;
  comm::SimNetwork net;
  DacsRuntime rt;
  explicit Fixture(comm::NetworkConfig cfg = {})
      : net(sim, one_cu(), cfg), rt(net) {}
};

// ---------------------------------------------------------------------------
// Topology and element handles
// ---------------------------------------------------------------------------

TEST(Dacs, ElementsAreHostPlusChildren) {
  Fixture f;
  EXPECT_EQ(f.rt.num_elements(), 5);
  EXPECT_EQ(f.rt.host_element().kind(), ElementKind::kHostElement);
  EXPECT_EQ(f.rt.accelerator(0).kind(), ElementKind::kAcceleratorElement);
  EXPECT_EQ(f.rt.accelerator(3).id().v, 4);
}

// ---------------------------------------------------------------------------
// Two-sided messaging with wait identifiers
// ---------------------------------------------------------------------------

TEST(Dacs, SendRecvMovesPayload) {
  Fixture f;
  std::vector<double> got;
  auto he_prog = [](Element he, std::vector<double>* out) -> sim::Task<void> {
    const Wid rw = he.recv(DeId{1}, 0);
    co_await he.wait(rw);
    *out = he.take_received(rw);
  };
  auto ae_prog = [](Element ae) -> sim::Task<void> {
    std::vector<double> data{1.0, 2.0, 3.0};
    const Wid sw = ae.send(DeId{0}, 0, std::move(data));
    co_await ae.wait(sw);
  };
  std::vector<sim::Task<void>> progs;
  progs.push_back(he_prog(f.rt.host_element(), &got));
  progs.push_back(ae_prog(f.rt.accelerator(0)));
  EXPECT_EQ(f.rt.run(std::move(progs)), 2u);
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Dacs, TransferChargesDacsChannelTime) {
  Fixture f;
  double done_us = 0.0;
  auto he_prog = [](Element he, sim::Simulator* sim, double* out) -> sim::Task<void> {
    const Wid rw = he.recv(DeId{1}, 0);
    co_await he.wait(rw);
    *out = sim->now().us();
  };
  auto ae_prog = [](Element ae) -> sim::Task<void> {
    const Wid sw = ae.send(DeId{0}, 0, std::vector<double>(4, 1.0));
    co_await ae.wait(sw);
  };
  std::vector<sim::Task<void>> progs;
  progs.push_back(he_prog(f.rt.host_element(), &f.sim, &done_us));
  progs.push_back(ae_prog(f.rt.accelerator(0)));
  f.rt.run(std::move(progs));
  EXPECT_GT(done_us, cal::kAnchorDacsLatency.us());  // 3.19 us floor
  EXPECT_LT(done_us, cal::kAnchorDacsLatency.us() + 2.0);
}

TEST(Dacs, TestPollsWithoutBlocking) {
  Fixture f;
  bool was_unset = false, later_set = false;
  auto he_prog = [](Element he, sim::Simulator* sim, bool* unset,
                    bool* set_later) -> sim::Task<void> {
    const Wid rw = he.recv(DeId{1}, 7);
    *unset = !he.test(rw);  // immediately after posting: not complete
    co_await sim::Delay{*sim, Duration::microseconds(50)};
    *set_later = he.test(rw);
  };
  auto ae_prog = [](Element ae) -> sim::Task<void> {
    const Wid sw = ae.send(DeId{0}, 7, std::vector<double>{9.0});
    co_await ae.wait(sw);
  };
  std::vector<sim::Task<void>> progs;
  progs.push_back(he_prog(f.rt.host_element(), &f.sim, &was_unset, &later_set));
  progs.push_back(ae_prog(f.rt.accelerator(0)));
  f.rt.run(std::move(progs));
  EXPECT_TRUE(was_unset);
  EXPECT_TRUE(later_set);
}

TEST(Dacs, StreamsMatchIndependently) {
  Fixture f;
  std::vector<double> s0, s1;
  auto he_prog = [](Element he, std::vector<double>* a,
                    std::vector<double>* b) -> sim::Task<void> {
    // Post receives in reverse stream order: matching is by stream.
    const Wid r1 = he.recv(DeId{1}, 1);
    const Wid r0 = he.recv(DeId{1}, 0);
    co_await he.wait(r0);
    co_await he.wait(r1);
    *a = he.take_received(r0);
    *b = he.take_received(r1);
  };
  auto ae_prog = [](Element ae) -> sim::Task<void> {
    const Wid a = ae.send(DeId{0}, 0, std::vector<double>{10.0});
    const Wid b = ae.send(DeId{0}, 1, std::vector<double>{11.0});
    co_await ae.wait(a);
    co_await ae.wait(b);
  };
  std::vector<sim::Task<void>> progs;
  progs.push_back(he_prog(f.rt.host_element(), &s0, &s1));
  progs.push_back(ae_prog(f.rt.accelerator(0)));
  f.rt.run(std::move(progs));
  EXPECT_EQ(s0, (std::vector<double>{10.0}));
  EXPECT_EQ(s1, (std::vector<double>{11.0}));
}

TEST(Dacs, PerLinkSerializationUnderContention) {
  // Two sends on ONE AE's link serialize; sends from different AEs overlap.
  Fixture f;
  double same_link_us = 0.0, diff_link_us = 0.0;
  const std::size_t n = 100'000;  // ~800 KB: serialization dominates latency

  auto run_pair = [&](int ae_a, int ae_b, double* out) {
    Fixture g;
    auto he_prog = [](Element he, sim::Simulator* sim, int a, int b,
                      double* out2) -> sim::Task<void> {
      const Wid r1 = he.recv(DeId{a + 1}, 0);
      const Wid r2 = he.recv(DeId{b + 1}, 1);
      co_await he.wait(r1);
      co_await he.wait(r2);
      *out2 = sim->now().us();
    };
    auto ae_prog = [](Element ae, int stream, std::size_t count) -> sim::Task<void> {
      const Wid sw = ae.send(DeId{0}, stream, std::vector<double>(count, 1.0));
      co_await ae.wait(sw);
    };
    std::vector<sim::Task<void>> progs;
    progs.push_back(he_prog(g.rt.host_element(), &g.sim, ae_a, ae_b, out));
    progs.push_back(ae_prog(g.rt.accelerator(ae_a), 0, n));
    progs.push_back(ae_prog(g.rt.accelerator(ae_b), 1, n));
    g.rt.run(std::move(progs));
  };
  run_pair(0, 0, &same_link_us);
  run_pair(0, 1, &diff_link_us);
  EXPECT_GT(same_link_us, diff_link_us * 1.7);
}

TEST(Dacs, SharesTheCellPcieLinkWithCml) {
  // A DaCS HE -> AE1 send and a CML message leaving node 0's Cell 0 (rank
  // 0 -> rank 8 on Cell 1) start together.  The DaCS send takes Cell 0's
  // PCIe link at once; the CML message asks for it after its SPE -> PPE
  // local leg and waits for the rest of the DaCS send.
  const std::size_t staged = 1000;
  // Returns when rank 8 got the message, and Cell 0's PCIe busy time.
  const auto run = [&](bool with_dacs) {
    sim::Simulator sim;
    cml::CmlWorld world(sim, one_cu(), cml::CmlConfig{});
    DacsRuntime rt(world.network());
    auto he_prog = [](Element he, std::size_t n) -> sim::Task<void> {
      co_await he.wait(he.send(DeId{1}, 0, std::vector<double>(n, 1.0)));
    };
    auto ae_prog = [](Element ae) -> sim::Task<void> {
      co_await ae.wait(ae.recv(DeId{0}, 0));
    };
    sim::TaskRegistry dacs_progs(sim);
    if (with_dacs) {
      dacs_progs.spawn(he_prog(rt.host_element(), staged));
      dacs_progs.spawn(ae_prog(rt.accelerator(0)));
    }
    Duration delivered;
    world.run([&](cml::CmlContext ctx) -> sim::Task<void> {
      if (ctx.rank() == 0) co_await ctx.send(8, 0, std::vector<double>(1, 1.0));
      if (ctx.rank() == 8) {
        co_await ctx.recv(0, 0);
        delivered = sim.now() - TimePoint::origin();
      }
    });
    EXPECT_EQ(dacs_progs.drain(), with_dacs ? 2u : 0u);
    return std::pair{delivered, world.network().pcie_busy(0, 0)};
  };
  const auto [alone, alone_busy] = run(false);
  const auto [shared, shared_busy] = run(true);

  const comm::ChannelModel pcie{comm::cell_pcie(false)};
  const Duration dacs_hold = pcie.one_way(comm::message_bytes(staged));
  // Alone, the message crosses two local legs and two PCIe legs.
  const Duration local_leg = Duration::picoseconds(
      (alone - pcie.one_way(comm::message_bytes(1)) * 2).ps() / 2);
  EXPECT_EQ((shared - alone).ps(), (dacs_hold - local_leg).ps());
  EXPECT_EQ(shared_busy.ps(), (alone_busy + dacs_hold).ps());
}

// ---------------------------------------------------------------------------
// One-sided remote memory
// ---------------------------------------------------------------------------

TEST(Dacs, PutWritesIntoRemoteRegion) {
  Fixture f;
  RemoteMem mem{};
  auto he_prog = [](Element he, RemoteMem* out) -> sim::Task<void> {
    *out = he.create_remote_mem(16);
    co_return;
  };
  std::vector<sim::Task<void>> setup;
  setup.push_back(he_prog(f.rt.host_element(), &mem));
  f.rt.run(std::move(setup));

  auto ae_prog = [](Element ae, RemoteMem m) -> sim::Task<void> {
    std::vector<double> vals{5.5, 6.5};
    const Wid w = ae.put(m, 4, std::move(vals));
    co_await ae.wait(w);
  };
  std::vector<sim::Task<void>> progs;
  progs.push_back(ae_prog(f.rt.accelerator(2), mem));
  f.rt.run(std::move(progs));
  EXPECT_DOUBLE_EQ(f.rt.host_element().mem_at(mem, 4), 5.5);
  EXPECT_DOUBLE_EQ(f.rt.host_element().mem_at(mem, 5), 6.5);
  EXPECT_DOUBLE_EQ(f.rt.host_element().mem_at(mem, 0), 0.0);
}

TEST(Dacs, GetReadsFromRemoteRegion) {
  Fixture f;
  RemoteMem mem{};
  std::vector<double> got;
  auto he_prog = [](Element he, RemoteMem* out) -> sim::Task<void> {
    *out = he.create_remote_mem(8);
    std::vector<double> init{1, 2, 3, 4, 5, 6, 7, 8};
    const Wid w = he.put(*out, 0, std::move(init));  // local fill
    co_await he.wait(w);
  };
  std::vector<sim::Task<void>> setup;
  setup.push_back(he_prog(f.rt.host_element(), &mem));
  f.rt.run(std::move(setup));

  auto ae_prog = [](Element ae, RemoteMem m, std::vector<double>* out) -> sim::Task<void> {
    const Wid w = ae.get(m, 2, 3);
    co_await ae.wait(w);
    *out = ae.take_received(w);
  };
  std::vector<sim::Task<void>> progs;
  progs.push_back(ae_prog(f.rt.accelerator(0), mem, &got));
  f.rt.run(std::move(progs));
  EXPECT_EQ(got, (std::vector<double>{3, 4, 5}));
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

TEST(Dacs, BarrierHoldsEveryoneForTheLastArrival) {
  Fixture f;
  const int n = f.rt.num_elements();
  std::vector<double> leave_us(n, 0.0);
  std::vector<sim::Task<void>> progs;
  auto prog = [](Element e, sim::Simulator* sim, double* leave) -> sim::Task<void> {
    co_await sim::Delay{*sim, Duration::microseconds(e.id().v * 10)};
    co_await e.barrier();
    *leave = sim->now().us();
  };
  for (int i = 0; i < n; ++i)
    progs.push_back(prog(f.rt.element(DeId{i}), &f.sim, &leave_us[i]));
  EXPECT_EQ(f.rt.run(std::move(progs)), static_cast<std::size_t>(n));
  // The last arrival is at 40 us plus its notify crossing; nobody leaves
  // before that.
  for (int i = 0; i < n; ++i) EXPECT_GE(leave_us[i], 40.0) << i;
}

TEST(Dacs, BackToBackBarriersWork) {
  Fixture f(comm::NetworkConfig{2, false});
  int completions = 0;
  std::vector<sim::Task<void>> progs;
  auto prog = [](Element e, int* done) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) co_await e.barrier();
    ++*done;
  };
  for (int i = 0; i < f.rt.num_elements(); ++i)
    progs.push_back(prog(f.rt.element(DeId{i}), &completions));
  f.rt.run(std::move(progs));
  EXPECT_EQ(completions, 3);
}

TEST(Dacs, BestCasePcieIsFaster) {
  double early_us = 0.0, best_us = 0.0;
  for (const bool best : {false, true}) {
    Fixture f(comm::NetworkConfig{4, best});
    double* out = best ? &best_us : &early_us;
    auto he_prog = [](Element he, sim::Simulator* sim, double* o) -> sim::Task<void> {
      const Wid rw = he.recv(DeId{1}, 0);
      co_await he.wait(rw);
      *o = sim->now().us();
    };
    auto ae_prog = [](Element ae) -> sim::Task<void> {
      const Wid sw = ae.send(DeId{0}, 0, std::vector<double>(1000, 1.0));
      co_await ae.wait(sw);
    };
    std::vector<sim::Task<void>> progs;
    progs.push_back(he_prog(f.rt.host_element(), &f.sim, out));
    progs.push_back(ae_prog(f.rt.accelerator(0)));
    f.rt.run(std::move(progs));
  }
  EXPECT_LT(best_us, early_us);
}

}  // namespace
}  // namespace rr::dacs
