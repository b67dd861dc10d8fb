#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "congest/network.h"
#include "congest/primitives.h"
#include "congest/simulator.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "graph/properties.h"
#include "tests/test_util.h"

namespace cpt::congest {
namespace {

using testutil::whole_graph_parts;

struct Fixture {
  Graph g;
  Network net;
  Simulator sim;
  PartForest pf;

  explicit Fixture(Graph graph)
      : g(std::move(graph)), net(g), sim(net), pf(whole_graph_parts(g)) {}

  TreeView tree() { return TreeView{&pf.parent_edge, &pf.children, nullptr}; }
};

TEST(ConvergeRecords, SumsUpTheTree) {
  Fixture f(gen::binary_tree(15));
  ConvergeRecords conv(f.tree(), Combine::kSum, 0);
  for (NodeId v = 0; v < f.g.num_nodes(); ++v) {
    conv.initial[v] = {{0, 1}, {1, static_cast<std::int64_t>(v)}};
  }
  const PassResult r = f.sim.run(conv);
  EXPECT_TRUE(r.quiesced);
  const auto& at_root = conv.at_root(0);
  std::int64_t count = 0;
  std::int64_t sum = 0;
  for (const Record& rec : at_root) {
    if (rec.key == 0) count = rec.value;
    if (rec.key == 1) sum = rec.value;
  }
  EXPECT_EQ(count, 15);
  EXPECT_EQ(sum, 15 * 14 / 2);
}

TEST(ConvergeRecords, MinAndMax) {
  Fixture f(gen::path(20));
  {
    ConvergeRecords conv(f.tree(), Combine::kMin, 0);
    for (NodeId v = 0; v < 20; ++v) {
      conv.initial[v] = {{0, 100 - static_cast<std::int64_t>(v)}};
    }
    f.sim.run(conv);
    EXPECT_EQ(conv.at_root(0)[0].value, 81);
  }
  {
    ConvergeRecords conv(f.tree(), Combine::kMax, 0);
    for (NodeId v = 0; v < 20; ++v) {
      conv.initial[v] = {{0, static_cast<std::int64_t>(v) % 7}};
    }
    f.sim.run(conv);
    EXPECT_EQ(conv.at_root(0)[0].value, 6);
  }
}

TEST(ConvergeRecords, CapTriggersOverflow) {
  Fixture f(gen::star(10));  // root 0, leaves 1..9
  ConvergeRecords conv(f.tree(), Combine::kSum, 4);
  for (NodeId v = 1; v < 10; ++v) {
    conv.initial[v] = {{v, 1}};  // 9 distinct keys > cap 4
  }
  f.sim.run(conv);
  EXPECT_TRUE(conv.overflowed(0));
}

TEST(ConvergeRecords, CapNotTriggeredAtBoundary) {
  Fixture f(gen::star(5));
  ConvergeRecords conv(f.tree(), Combine::kSum, 4);
  for (NodeId v = 1; v < 5; ++v) conv.initial[v] = {{v, 2}};
  f.sim.run(conv);
  EXPECT_FALSE(conv.overflowed(0));
  EXPECT_EQ(conv.at_root(0).size(), 4u);
}

TEST(ConvergeRecords, RoundsScaleWithDepthAndRecords) {
  Fixture f(gen::path(30));
  ConvergeRecords conv(f.tree(), Combine::kSum, 0);
  for (NodeId v = 0; v < 30; ++v) conv.initial[v] = {{0, 1}};
  const PassResult r = f.sim.run(conv);
  // Store-and-forward of 2 messages (1 record + DONE) per level: ~2*depth.
  EXPECT_GE(r.rounds, 29u);
  EXPECT_LE(r.rounds, 2u * 29u + 2u);
}

TEST(BroadcastRecords, StreamsReachAllNodesInOrder) {
  Fixture f(gen::binary_tree(31));
  BroadcastRecords bc(f.tree());
  bc.stream[0] = {{1, 10}, {2, 20}, {3, 30}};
  const PassResult r = f.sim.run(bc);
  EXPECT_TRUE(r.quiesced);
  for (NodeId v = 1; v < 31; ++v) {
    ASSERT_EQ(bc.received[v].size(), 3u) << "node " << v;
    EXPECT_EQ(bc.received[v][0].key, 1u);
    EXPECT_EQ(bc.received[v][1].key, 2u);
    EXPECT_EQ(bc.received[v][2].key, 3u);
    EXPECT_EQ(bc.received[v][2].value, 30);
  }
  // Pipelined: depth + stream length, not depth * length.
  EXPECT_LE(r.rounds, 4u + 3u + 2u);
}

TEST(BroadcastRecords, EmptyStreamsAreFree) {
  Fixture f(gen::binary_tree(7));
  BroadcastRecords bc(f.tree());
  const PassResult r = f.sim.run(bc);
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_EQ(r.messages, 0u);
}

std::vector<std::pair<std::uint64_t, std::int64_t>> sorted_pairs(
    RecordTable::ConstRow row) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> out;
  for (const Record& r : row) out.push_back({r.key, r.value});
  std::sort(out.begin(), out.end());
  return out;
}

// ---- Deep-tree stress for the pipelined streams --------------------------

TEST(ConvergeRecords, PipelinedMatchesUnpipelinedOnDeepPath) {
  // Path tree with 10^4 nodes: the worst store-and-forward depth. The
  // pipelined mode must produce the identical merged set at the root with
  // strictly fewer rounds and messages (the folded DONE markers).
  const NodeId n = 10000;
  Fixture f(gen::path(n));
  std::vector<std::pair<std::uint64_t, std::int64_t>> results[2];
  PassResult pr[2];
  int i = 0;
  for (const bool pipelined : {false, true}) {
    ConvergeRecords conv;
    conv.reset(f.tree(), Combine::kSum, 0, nullptr, pipelined);
    for (NodeId v = 0; v < n; ++v) {
      conv.initial[v] = {{0, 1}, {1 + v % 3, static_cast<std::int64_t>(v)}};
    }
    pr[i] = f.sim.run(conv);
    EXPECT_TRUE(pr[i].quiesced);
    results[i] = sorted_pairs(conv.at_root(0));
    ++i;
  }
  EXPECT_EQ(results[0], results[1]);
  ASSERT_EQ(results[0].size(), 4u);  // keys 0, 1, 2, 3
  EXPECT_EQ(results[0][0], (std::pair<std::uint64_t, std::int64_t>{0, n}));
  EXPECT_LT(pr[1].rounds, pr[0].rounds);
  EXPECT_LT(pr[1].messages, pr[0].messages);
  EXPECT_GE(pr[1].rounds, static_cast<std::uint64_t>(n - 1));  // depth floor
}

TEST(ConvergeRecords, CapOneOverflowCascadesOnDeepPath) {
  // cap = 1 with a distinct key per node: every internal node's merged set
  // exceeds the cap, so the single overflow record cascades 10^4 levels.
  // Both modes must agree on the overflow verdict; the pipelined stream
  // (one LAST record per edge instead of record + DONE) halves the rounds.
  const NodeId n = 10000;
  Fixture f(gen::path(n));
  PassResult pr[2];
  int i = 0;
  for (const bool pipelined : {false, true}) {
    ConvergeRecords conv;
    conv.reset(f.tree(), Combine::kSum, 1, nullptr, pipelined);
    for (NodeId v = 0; v < n; ++v) {
      conv.initial[v] = {{v, 1}};
    }
    pr[i] = f.sim.run(conv);
    EXPECT_TRUE(pr[i].quiesced);
    EXPECT_TRUE(conv.overflowed(0));
    ++i;
  }
  // Unpipelined: overflow record + DONE per edge; pipelined: one LAST per
  // edge. Exact counts pin the stream schedule.
  EXPECT_EQ(pr[0].messages, 2u * (n - 1));
  EXPECT_EQ(pr[1].messages, static_cast<std::uint64_t>(n - 1));
  EXPECT_LT(pr[1].rounds, pr[0].rounds);
}

TEST(ConvergeRecords, StreamsLongerThanCapStayCapped) {
  // Merged sets larger than the cap never travel: the outgoing stream of
  // an overflowed node is a single record in either mode.
  Fixture f(gen::star(12));
  for (const bool pipelined : {false, true}) {
    ConvergeRecords conv;
    conv.reset(f.tree(), Combine::kSum, 4, nullptr, pipelined);
    for (NodeId v = 1; v < 12; ++v) conv.initial[v] = {{v, 1}};
    const PassResult r = f.sim.run(conv);
    EXPECT_TRUE(conv.overflowed(0));
    // 11 leaves, one record each (pipelined folds DONE; legacy adds it).
    EXPECT_EQ(r.messages, pipelined ? 11u : 22u);
  }
}

TEST(ConvergeRecords, AllEmptyInitialCostsIdenticalRoundsInBothModes) {
  // Bare DONE streams have nothing to fold: the pipelined schedule must
  // degenerate to exactly the legacy one.
  Fixture f(gen::binary_tree(127));
  PassResult pr[2];
  int i = 0;
  for (const bool pipelined : {false, true}) {
    ConvergeRecords conv;
    conv.reset(f.tree(), Combine::kSum, 0, nullptr, pipelined);
    pr[i] = f.sim.run(conv);
    EXPECT_TRUE(conv.at_root(0).empty());
    EXPECT_FALSE(conv.overflowed(0));
    ++i;
  }
  EXPECT_EQ(pr[0].rounds, pr[1].rounds);
  EXPECT_EQ(pr[0].messages, pr[1].messages);
  EXPECT_EQ(pr[0].messages, 126u);  // one DONE per tree edge
}

TEST(BroadcastRecords, PipelinedDeepStreamMatchesUnpipelined) {
  const NodeId n = 10000;
  const std::uint64_t len = 64;
  Fixture f(gen::path(n));
  PassResult pr[2];
  int i = 0;
  for (const bool pipelined : {false, true}) {
    BroadcastRecords bc;
    bc.reset(f.tree(), nullptr, pipelined);
    for (std::uint64_t k = 0; k < len; ++k) {
      bc.stream[0].push_back({k, static_cast<std::int64_t>(10 * k)});
    }
    pr[i] = f.sim.run(bc);
    EXPECT_TRUE(pr[i].quiesced);
    // Every node sees the full stream in order.
    ASSERT_EQ(bc.received[n - 1].size(), len);
    std::uint64_t k = 0;
    for (const Record& r : bc.received[n - 1]) {
      EXPECT_EQ(r.key, k);
      EXPECT_EQ(r.value, static_cast<std::int64_t>(10 * k));
      ++k;
    }
    ++i;
  }
  // Exact per-edge counts: len + end marker unpipelined, len pipelined.
  EXPECT_EQ(pr[0].messages, (len + 1) * (n - 1));
  EXPECT_EQ(pr[1].messages, len * (n - 1));
  EXPECT_LT(pr[1].rounds, pr[0].rounds);
  EXPECT_GE(pr[1].rounds, static_cast<std::uint64_t>(n - 1));
}

TEST(BroadcastRecords, EmptyRootsAndChildlessRootsAreFreeInBothModes) {
  for (const bool pipelined : {false, true}) {
    {
      // No streams at all.
      Fixture f(gen::binary_tree(7));
      BroadcastRecords bc;
      bc.reset(f.tree(), nullptr, pipelined);
      const PassResult r = f.sim.run(bc);
      EXPECT_EQ(r.rounds, 0u);
      EXPECT_EQ(r.messages, 0u);
    }
    {
      // A childless root with a non-empty stream has nowhere to send.
      Fixture f(gen::path(1));
      BroadcastRecords bc;
      bc.reset(f.tree(), nullptr, pipelined);
      bc.stream[0] = {{1, 2}, {3, 4}};
      const PassResult r = f.sim.run(bc);
      EXPECT_EQ(r.rounds, 0u);
      EXPECT_EQ(r.messages, 0u);
    }
  }
}

TEST(BroadcastRecords, RootsListSkipsTheFullSweepWithoutChangingResults) {
  // Handing TreeView a live-roots list must not change what is delivered.
  Fixture f(gen::binary_tree(31));
  const std::vector<NodeId> roots{0};
  for (const bool use_roots : {false, true}) {
    BroadcastRecords bc;
    TreeView tree = f.tree();
    if (use_roots) tree.roots = &roots;
    bc.reset(tree, nullptr, /*pipelined=*/true);
    bc.stream[0] = {{1, 10}, {2, 20}};
    const PassResult r = f.sim.run(bc);
    EXPECT_TRUE(r.quiesced);
    for (NodeId v = 1; v < 31; ++v) {
      ASSERT_EQ(bc.received[v].size(), 2u) << "node " << v;
      EXPECT_EQ(bc.received[v][0].key, 1u);
      EXPECT_EQ(bc.received[v][1].key, 2u);
    }
  }
}

TEST(Exchange, OneRoundNeighborInfo) {
  Fixture f(gen::cycle(6));
  std::vector<int> received(6, 0);
  Exchange ex(
      6,
      [&](NodeId v, std::vector<std::pair<std::uint32_t, Msg>>& out) {
        for (std::uint32_t p = 0; p < f.net.port_count(v); ++p) {
          out.push_back({p, Msg::make(9, static_cast<std::int64_t>(v))});
        }
      },
      [&](NodeId v, std::span<const Inbound> inbox) {
        for (const Inbound& in : inbox) {
          received[v] += static_cast<int>(in.msg.w[0]) + 1;
        }
      });
  const PassResult r = f.sim.run(ex);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_EQ(r.messages, 12u);
  for (NodeId v = 0; v < 6; ++v) {
    const int left = static_cast<int>((v + 5) % 6) + 1;
    const int right = static_cast<int>((v + 1) % 6) + 1;
    EXPECT_EQ(received[v], left + right);
  }
}

TEST(BfsForest, LevelsMatchBfsDistances) {
  const Graph g = gen::triangulated_grid(6, 7);
  Network net(g);
  Simulator sim(net);
  std::vector<NodeId> part_root(g.num_nodes(), 0);
  BfsForest bfs(part_root);
  const PassResult r = sim.run(bfs);
  EXPECT_TRUE(r.quiesced);
  const auto dist = bfs_distances(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(bfs.level[v], dist[v]) << "node " << v;
    if (v != 0) {
      ASSERT_NE(bfs.parent_edge[v], kNoEdge);
      const NodeId p = g.other_endpoint(bfs.parent_edge[v], v);
      EXPECT_EQ(bfs.level[p] + 1, bfs.level[v]);
      // Parent lists v as a child.
      const auto& pc = bfs.children[p];
      EXPECT_NE(std::find(pc.begin(), pc.end(), bfs.parent_edge[v]), pc.end());
    }
  }
}

TEST(BfsForest, RespectsPartBoundaries) {
  // Two 3x3 grids joined by one edge; parts split along it.
  const Graph base = gen::disjoint_copies(gen::grid(3, 3), 2);
  const std::vector<Endpoints> bridge = {{4, 13}};
  const Graph g = add_edges(base, bridge);
  std::vector<NodeId> part_root(g.num_nodes());
  for (NodeId v = 0; v < 9; ++v) part_root[v] = 0;
  for (NodeId v = 9; v < 18; ++v) part_root[v] = 9;
  Network net(g);
  Simulator sim(net);
  BfsForest bfs(part_root);
  sim.run(bfs);
  for (NodeId v = 0; v < 18; ++v) {
    if (v == 0 || v == 9) {
      EXPECT_EQ(bfs.parent_edge[v], kNoEdge);
      continue;
    }
    const NodeId p = g.other_endpoint(bfs.parent_edge[v], v);
    EXPECT_EQ(part_root[p], part_root[v]) << "tree edge crosses parts";
  }
}

}  // namespace
}  // namespace cpt::congest
