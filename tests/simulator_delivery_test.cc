// Exact-trace tests for the simulator's delivery semantics. These pin down
// the contract any delivery-engine rewrite must preserve bit-for-bit:
//   * nodes are processed in increasing id order within a round,
//   * each inbox is sorted by receiving port,
//   * a node woken by both a wake-up request and incoming messages gets a
//     single on_wake with the full inbox,
//   * duplicate wake-up requests coalesce,
//   * sending twice over one directed edge in one round aborts (CONGEST
//     bandwidth), and
//   * ports are not width-limited (degree >= 2^20 regression).
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>

#include "congest/network.h"
#include "congest/simulator.h"
#include "graph/generators.h"

namespace cpt::congest {
namespace {

// Runs scripted per-node behavior and records every on_wake as
// "r<round> n<node> [port:tag port:tag ...]".
class Tracer : public Program {
 public:
  using BeginFn = std::function<void(Exec&)>;
  using WakeFn =
      std::function<void(Exec&, NodeId, std::span<const Inbound>)>;

  Tracer(BeginFn begin, WakeFn wake)
      : begin_(std::move(begin)), wake_(std::move(wake)) {}

  void begin(Exec& sim) override { begin_(sim); }

  void on_wake(Exec& sim, NodeId v,
               std::span<const Inbound> inbox) override {
    // Appends only: GCC 12 flags `"literal" + std::string&&` with a false
    // -Wrestrict positive.
    std::string e = "r";
    e += std::to_string(sim.current_round());
    e += " n";
    e += std::to_string(v);
    e += " [";
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      if (i > 0) e += ' ';
      e += std::to_string(inbox[i].port) + ':' +
           std::to_string(inbox[i].msg.tag);
    }
    e += ']';
    trace.push_back(std::move(e));
    if (wake_) wake_(sim, v, inbox);
  }

  std::vector<std::string> trace;

 private:
  BeginFn begin_;
  WakeFn wake_;
};

// star(5): hub 0; leaf i sits behind hub port i-1.
TEST(SimulatorDelivery, MessageHeavyExactTrace) {
  const Graph g = gen::star(5);
  Network net(g);
  Simulator sim(net);
  Tracer t(
      [](Exec& sim) {
        // Reverse send order: delivery must still sort the hub's inbox by
        // receiving port. Hub also messages leaf 2 in the same round.
        for (NodeId v = 4; v >= 1; --v) sim.send(v, 0, Msg::make(v));
        sim.send(0, 1, Msg::make(99));
      },
      [](Exec& sim, NodeId v, std::span<const Inbound> inbox) {
        if (sim.current_round() == 1 && v == 0) {
          // Echo 10+p to every port.
          for (std::uint32_t p = 0; p < sim.network().port_count(0); ++p) {
            sim.send(0, p, Msg::make(10 + p));
          }
        } else if (sim.current_round() == 2 && v == 1) {
          sim.send(1, 0, Msg::make(21));
        } else if (sim.current_round() == 2 && v == 3) {
          sim.send(3, 0, Msg::make(23));
          sim.wake_next_round(3);  // wake + message must interleave at hub
        }
        (void)inbox;
      });
  const PassResult r = sim.run(t);
  const std::vector<std::string> want = {
      "r1 n0 [0:1 1:2 2:3 3:4]",  // inbox port-sorted despite reverse sends
      "r1 n2 [0:99]",
      "r2 n1 [0:10]",
      "r2 n2 [0:11]",
      "r2 n3 [0:12]",
      "r2 n4 [0:13]",
      "r3 n0 [0:21 2:23]",
      "r3 n3 []",  // pure wake-up, after the hub (id order)
  };
  EXPECT_EQ(t.trace, want);
  EXPECT_TRUE(r.quiesced);
  EXPECT_EQ(r.rounds, 3u);
  EXPECT_EQ(r.messages, 11u);
}

// path(4): 0-1-2-3. Node 1's ports: 0 -> node 0, 1 -> node 2.
TEST(SimulatorDelivery, WakeHeavyExactTrace) {
  const Graph g = gen::path(4);
  Network net(g);
  Simulator sim(net);
  Tracer t(
      [](Exec& sim) {
        for (NodeId v = 0; v < 4; ++v) sim.wake_next_round(v);
        sim.wake_next_round(1);  // duplicate: must coalesce
      },
      [](Exec& sim, NodeId v, std::span<const Inbound> inbox) {
        const auto round = sim.current_round();
        if (round == 1 && v == 0) sim.send(0, 0, Msg::make(5));
        if (round == 1 && v == 2) sim.wake_next_round(2);
        if (round == 2 && v == 1) {
          sim.send(1, 0, Msg::make(6));
          sim.send(1, 1, Msg::make(7));
          sim.wake_next_round(1);
        }
        (void)inbox;
      });
  const PassResult r = sim.run(t);
  const std::vector<std::string> want = {
      "r1 n0 []", "r1 n1 []", "r1 n2 []", "r1 n3 []",
      "r2 n1 [0:5]", "r2 n2 []",
      "r3 n0 [0:6]", "r3 n1 []", "r3 n2 [0:7]",
  };
  EXPECT_EQ(t.trace, want);
  EXPECT_TRUE(r.quiesced);
  EXPECT_EQ(r.rounds, 3u);
  EXPECT_EQ(r.messages, 3u);
}

TEST(SimulatorDeliveryDeathTest, MidRunBandwidthViolationAborts) {
  const Graph g = gen::path(3);
  Network net(g);
  Simulator sim(net);
  Tracer t([](Exec& sim) { sim.send(0, 0, Msg::make(1)); },
           [](Exec& sim, NodeId v, std::span<const Inbound>) {
             if (sim.current_round() == 1 && v == 1) {
               sim.send(1, 1, Msg::make(2));
               sim.send(1, 1, Msg::make(3));  // second send, same directed edge
             }
           });
  EXPECT_DEATH(sim.run(t), "one message per directed edge per round");
}

// Degree >= 2^20 regression: the seed packed (dst << 20 | port) into one
// 64-bit key, so a port of 2^20 bled into the destination id and the
// message was delivered to the wrong node. Ports must be full-width.
TEST(SimulatorDelivery, HugeDegreeHubDeliversOnCorrectPort) {
  constexpr NodeId kHubDegree = (1u << 20) + 1;  // > 2^20 ports
  const Graph g = gen::star(kHubDegree + 1);     // hub 0 + kHubDegree leaves
  Network net(g);
  Simulator sim(net);
  const NodeId high_leaf = kHubDegree;  // behind hub port 2^20
  Tracer t(
      [&](Exec& sim) { sim.send(high_leaf, 0, Msg::make(42)); },
      [&](Exec& sim, NodeId v, std::span<const Inbound> inbox) {
        if (v == 0) {
          ASSERT_EQ(inbox.size(), 1u);
          sim.send(0, inbox.front().port, Msg::make(43));
        }
      });
  const PassResult r = sim.run(t);
  const std::vector<std::string> want = {
      "r1 n0 [1048576:42]",
      "r2 n" + std::to_string(high_leaf) + " [0:43]",
  };
  EXPECT_EQ(t.trace, want);
  EXPECT_EQ(r.messages, 2u);
}

// Interrupted runs (max_rounds) must not leak in-flight state into the
// next run on the same simulator.
TEST(SimulatorDelivery, TruncatedRunLeavesNoResidue) {
  const Graph g = gen::cycle(6);
  Network net(g);
  Simulator sim(net);
  Tracer forever([](Exec& sim) { sim.send(0, 0, Msg::make(1)); },
                 [](Exec& sim, NodeId v, std::span<const Inbound> inbox) {
                   for (const Inbound& in : inbox) {
                     sim.send(v, 1 - in.port, in.msg);  // pass it around
                   }
                   sim.wake_next_round(v);
                 });
  const PassResult r1 = sim.run(forever, 4);
  EXPECT_FALSE(r1.quiesced);
  EXPECT_EQ(r1.rounds, 4u);

  Tracer quiet([](Exec& sim) { sim.wake_next_round(3); }, nullptr);
  const PassResult r2 = sim.run(quiet);
  EXPECT_TRUE(r2.quiesced);
  EXPECT_EQ(r2.rounds, 1u);
  EXPECT_EQ(r2.messages, 0u);
  const std::vector<std::string> want = {"r1 n3 []"};
  EXPECT_EQ(quiet.trace, want);
}

}  // namespace
}  // namespace cpt::congest
