#include <gtest/gtest.h>

#include "congest/network.h"
#include "congest/metrics.h"
#include "congest/simulator.h"
#include "graph/generators.h"

namespace cpt::congest {
namespace {

// Flood: node 0 starts; every node forwards once. Measures BFS-like rounds.
class Flood : public Program {
 public:
  explicit Flood(NodeId n) : reached(n, 0) {}

  void begin(Exec& sim) override {
    reached[0] = 1;
    for (std::uint32_t p = 0; p < sim.network().port_count(0); ++p) {
      sim.send(0, p, Msg::make(1));
    }
  }

  void on_wake(Exec& sim, NodeId v, std::span<const Inbound> inbox) override {
    if (inbox.empty() || reached[v]) return;
    reached[v] = 1;
    for (std::uint32_t p = 0; p < sim.network().port_count(v); ++p) {
      if (p != inbox.front().port) sim.send(v, p, Msg::make(1));
    }
  }

  std::vector<std::uint8_t> reached;
};

TEST(Simulator, FloodReachesEveryoneInDiameterRounds) {
  const Graph g = gen::path(10);
  Network net(g);
  Simulator sim(net);
  Flood flood(g.num_nodes());
  const PassResult r = sim.run(flood);
  EXPECT_TRUE(r.quiesced);
  EXPECT_EQ(r.rounds, 9u);   // wave traverses the path
  EXPECT_EQ(r.messages, 9u);  // nodes skip the port the wave arrived on
  for (const auto f : flood.reached) EXPECT_TRUE(f);
}

// Ping-pong across one edge for k rounds.
class PingPong : public Program {
 public:
  explicit PingPong(int k) : remaining_(k) {}

  void begin(Exec& sim) override { sim.send(0, 0, Msg::make(7, 123)); }

  void on_wake(Exec& sim, NodeId v, std::span<const Inbound> inbox) override {
    for (const Inbound& in : inbox) {
      EXPECT_EQ(in.msg.tag, 7u);
      EXPECT_EQ(in.msg.w[0], 123);
      if (--remaining_ > 0) sim.send(v, in.port, in.msg);
    }
  }

 private:
  int remaining_;
};

TEST(Simulator, PingPongRoundsAndMessages) {
  const Graph g = gen::path(2);
  Network net(g);
  Simulator sim(net);
  PingPong pp(6);
  const PassResult r = sim.run(pp);
  EXPECT_EQ(r.rounds, 6u);
  EXPECT_EQ(r.messages, 6u);
}

TEST(Simulator, MaxRoundsCutsOff) {
  const Graph g = gen::path(2);
  Network net(g);
  Simulator sim(net);
  PingPong pp(1000);
  const PassResult r = sim.run(pp, 10);
  EXPECT_FALSE(r.quiesced);
  EXPECT_EQ(r.rounds, 10u);
}

// A node that sends twice on the same port in one round violates CONGEST.
class DoubleSend : public Program {
 public:
  void begin(Exec& sim) override {
    sim.send(0, 0, Msg::make(1));
    sim.send(0, 0, Msg::make(2));  // contract violation
  }
  void on_wake(Exec&, NodeId, std::span<const Inbound>) override {}
};

// Contract-violation death tests only fire when contracts are compiled in;
// the CPT_DISABLE_CONTRACTS=ON CI leg skips them.
#if !defined(CPT_DISABLE_CONTRACTS)
TEST(SimulatorDeathTest, BandwidthViolationAborts) {
  const Graph g = gen::path(2);
  Network net(g);
  Simulator sim(net);
  DoubleSend ds;
  EXPECT_DEATH(sim.run(ds), "one message per directed edge per round");
}
#endif

// Wake-only program: counts its wake-ups without any messages.
class SelfWaker : public Program {
 public:
  void begin(Exec& sim) override { sim.wake_next_round(0); }
  void on_wake(Exec& sim, NodeId v, std::span<const Inbound> inbox) override {
    EXPECT_TRUE(inbox.empty());
    EXPECT_EQ(v, 0u);
    if (++wakes < 5) sim.wake_next_round(0);
  }
  int wakes = 0;
};

TEST(Simulator, WakeUpsDriveRoundsWithoutMessages) {
  const Graph g = gen::path(3);
  Network net(g);
  Simulator sim(net);
  SelfWaker w;
  const PassResult r = sim.run(w);
  EXPECT_EQ(w.wakes, 5);
  EXPECT_EQ(r.rounds, 5u);
  EXPECT_EQ(r.messages, 0u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const Graph g = gen::grid(5, 5);
  Network net(g);
  Simulator sim(net);
  Flood f1(g.num_nodes());
  const PassResult r1 = sim.run(f1);
  Flood f2(g.num_nodes());
  const PassResult r2 = sim.run(f2);
  EXPECT_EQ(r1.rounds, r2.rounds);
  EXPECT_EQ(r1.messages, r2.messages);
}

TEST(Network, PortNumberingRoundTrips) {
  const Graph g = gen::triangulated_grid(3, 4);
  Network net(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::uint32_t p = 0; p < net.port_count(v); ++p) {
      const Arc a = net.arc(v, p);
      EXPECT_EQ(net.port_of_edge(v, a.edge), p);
      // The far side's port maps back to the same edge.
      const std::uint32_t q = net.port_of_edge(a.to, a.edge);
      EXPECT_EQ(net.arc(a.to, q).edge, a.edge);
      EXPECT_EQ(net.arc(a.to, q).to, v);
    }
  }
}

TEST(Metrics, LedgerAggregates) {
  RoundLedger ledger;
  ledger.add_pass("a/x", 5, 100);
  ledger.add_pass("a/y", 7, 50);
  ledger.charge("b", 10);
  EXPECT_EQ(ledger.total_rounds(), 22u);
  EXPECT_EQ(ledger.total_messages(), 150u);
  EXPECT_EQ(ledger.rounds_with_prefix("a/"), 12u);
  EXPECT_EQ(ledger.rounds_with_prefix("b"), 10u);
  EXPECT_EQ(ledger.passes().size(), 3u);
}

}  // namespace
}  // namespace cpt::congest
