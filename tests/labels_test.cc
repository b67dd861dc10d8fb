#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "congest/network.h"
#include "congest/primitives.h"
#include "congest/simulator.h"
#include "core/labels.h"
#include "graph/generators.h"
#include "planar/lr_planarity.h"
#include "tests/test_util.h"

namespace cpt {
namespace {

using congest::BfsForest;
using congest::Network;
using congest::Simulator;
using congest::TreeView;
using testutil::whole_graph_parts;

// Centralized reference label computation.
std::vector<Label> reference_labels(
    const Graph& g, const std::vector<EdgeId>& parent,
    const std::vector<std::vector<EdgeId>>& children,
    const std::vector<std::vector<std::uint32_t>>& kid_labels) {
  std::vector<Label> labels(g.num_nodes());
  // Repeated relaxation down the tree (depth passes).
  for (NodeId pass = 0; pass < g.num_nodes(); ++pass) {
    bool changed = false;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (std::size_t i = 0; i < children[v].size(); ++i) {
        const NodeId w = g.other_endpoint(children[v][i], v);
        Label want = labels[v];
        want.push_back(kid_labels[v][i]);
        if (labels[w] != want) {
          labels[w] = want;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  (void)parent;
  return labels;
}

TEST(ChildEdgeLabels, RanksFollowRotationFromParent) {
  // Star with center 1: nodes 0..3, edges 1-0, 1-2, 1-3. BFS root 0, so at
  // node 1 the parent edge is (0,1) and children are 2 and 3.
  GraphBuilder b(4);
  b.add_edge(1, 0);
  b.add_edge(1, 2);
  b.add_edge(1, 3);
  const Graph g = std::move(b).build();
  const PartForest pf = whole_graph_parts(g);
  RotationSystem rot(4);
  const EdgeId e10 = g.find_edge(1, 0);
  const EdgeId e12 = g.find_edge(1, 2);
  const EdgeId e13 = g.find_edge(1, 3);
  rot[0] = {e10};
  rot[1] = {e12, e10, e13};  // rotation: 2, parent, 3
  rot[2] = {e12};
  rot[3] = {e13};
  const auto kid = child_edge_labels(g, rot, pf.parent_edge, pf.children);
  // Children of 1 in pf order; the rank must start after the parent edge:
  // (1,3) is rank 1, (1,2) is rank 2.
  ASSERT_EQ(pf.children[1].size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const EdgeId ce = pf.children[1][i];
    EXPECT_EQ(kid[1][i], ce == e13 ? 1u : 2u);
  }
}

TEST(ChildEdgeLabels, RootStartsAtFirstRotationEntry) {
  const Graph g = gen::star(4);  // center 0
  const PartForest pf = whole_graph_parts(g);
  RotationSystem rot = adjacency_rotation(g);
  const auto kid = child_edge_labels(g, rot, pf.parent_edge, pf.children);
  ASSERT_EQ(kid[0].size(), 3u);
  // Ranks are 1..3 in rotation order.
  std::vector<std::uint32_t> sorted = kid[0];
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(LabelDistribute, MatchesCentralizedReference) {
  Rng rng(5);
  const Graph g = gen::random_planar(120, 260, rng);
  const PartForest pf = whole_graph_parts(g);
  const auto rot = *lr_planar_embedding(g);
  const auto kid = child_edge_labels(g, rot, pf.parent_edge, pf.children);

  Network net(g);
  Simulator sim(net);
  LabelDistribute dist(TreeView{&pf.parent_edge, &pf.children, nullptr}, kid);
  const auto r = sim.run(dist);
  EXPECT_TRUE(r.quiesced);

  const auto ref = reference_labels(g, pf.parent_edge, pf.children, kid);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(dist.label(v), ref[v]) << "node " << v;
  }
}

TEST(LabelDistribute, PipelinedRoundBound) {
  // Rounds should be about depth + max label length, not their product.
  const Graph g = gen::path(64);
  const PartForest pf = whole_graph_parts(g);
  std::vector<std::vector<std::uint32_t>> kid(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    kid[v].assign(pf.children[v].size(), 1);
  }
  Network net(g);
  Simulator sim(net);
  LabelDistribute dist(TreeView{&pf.parent_edge, &pf.children, nullptr}, kid);
  const auto r = sim.run(dist);
  EXPECT_EQ(dist.label(63).size(), 63u);
  EXPECT_LE(r.rounds, 2u * 63u + 4u);
}

TEST(LabelLexOrder, EqualsTreePreorder) {
  // Sorting nodes by label must equal a preorder traversal that visits
  // children in kid-label order.
  Rng rng(7);
  const Graph g = gen::random_tree(200, rng);
  const PartForest pf = whole_graph_parts(g);
  const auto rot = adjacency_rotation(g);  // any rotation works on a tree
  const auto kid = child_edge_labels(g, rot, pf.parent_edge, pf.children);
  const auto labels = reference_labels(g, pf.parent_edge, pf.children, kid);

  std::vector<NodeId> by_label(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) by_label[v] = v;
  std::sort(by_label.begin(), by_label.end(),
            [&](NodeId a, NodeId b) { return labels[a] < labels[b]; });

  std::vector<NodeId> preorder;
  std::vector<NodeId> stack{0};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    preorder.push_back(v);
    // Children sorted by descending kid label so the smallest pops first.
    std::vector<std::pair<std::uint32_t, NodeId>> kids;
    for (std::size_t i = 0; i < pf.children[v].size(); ++i) {
      kids.push_back({kid[v][i], g.other_endpoint(pf.children[v][i], v)});
    }
    std::sort(kids.rbegin(), kids.rend());
    for (const auto& [label, w] : kids) stack.push_back(w);
  }
  EXPECT_EQ(by_label, preorder);
}

TEST(EdgeLabelStream, DeliversLabelsAcrossSelectedEdges) {
  const Graph g = gen::cycle(6);
  Network net(g);
  Simulator sim(net);
  std::vector<Label> labels(6);
  labels[2] = {7, 8, 9};
  labels[5] = {1};
  std::vector<std::vector<std::uint32_t>> send_ports(6);
  // Node 2 streams to both neighbors; node 5 to one.
  send_ports[2] = {0, 1};
  send_ports[5] = {0};
  EdgeLabelStream stream(6, labels, send_ports);
  const auto r = sim.run(stream);
  EXPECT_TRUE(r.quiesced);
  int deliveries = 0;
  for (NodeId v = 0; v < 6; ++v) {
    for (const auto& [port, label] : stream.received()[v]) {
      const NodeId from = net.arc(v, port).to;
      EXPECT_EQ(label, labels[from]);
      ++deliveries;
    }
  }
  EXPECT_EQ(deliveries, 3);
}

TEST(UpStreamWords, FramesNeverInterleave) {
  // Star: 6 leaves each injecting a distinct frame; the root must receive
  // all 6 frames intact.
  const Graph g = gen::star(7);
  const PartForest pf = whole_graph_parts(g);
  Network net(g);
  Simulator sim(net);
  UpStreamWords up(TreeView{&pf.parent_edge, &pf.children, nullptr});
  for (NodeId v = 1; v < 7; ++v) {
    up.initial[v].push_back({static_cast<std::int64_t>(v), 100 + v, 200 + v});
    up.initial[v].push_back({-static_cast<std::int64_t>(v)});
  }
  const auto r = sim.run(up);
  EXPECT_TRUE(r.quiesced);
  const auto& frames = up.frames_at_root(0);
  ASSERT_EQ(frames.size(), 12u);
  int long_frames = 0;
  for (const auto& f : frames) {
    if (f.size() == 3) {
      ++long_frames;
      EXPECT_EQ(f[1], f[0] + 100);
      EXPECT_EQ(f[2], f[0] + 200);
    } else {
      ASSERT_EQ(f.size(), 1u);
      EXPECT_LT(f[0], 0);
    }
  }
  EXPECT_EQ(long_frames, 6);
}

TEST(UpStreamWords, DeepTreePipelines) {
  const Graph g = gen::path(40);
  PartForest pf = whole_graph_parts(g);
  Network net(g);
  Simulator sim(net);
  UpStreamWords up(TreeView{&pf.parent_edge, &pf.children, nullptr});
  up.initial[39].push_back({1, 2, 3, 4});
  const auto r = sim.run(up);
  ASSERT_EQ(up.frames_at_root(0).size(), 1u);
  EXPECT_EQ(up.frames_at_root(0)[0], (std::vector<std::int64_t>{1, 2, 3, 4}));
  EXPECT_LE(r.rounds, 39u + 5u + 2u);
}

TEST(UpStreamWords, RootOwnFramesGoStraightToResult) {
  const Graph g = gen::path(3);
  PartForest pf = whole_graph_parts(g);
  Network net(g);
  Simulator sim(net);
  UpStreamWords up(TreeView{&pf.parent_edge, &pf.children, nullptr});
  up.initial[0].push_back({42});
  const auto r = sim.run(up);
  EXPECT_EQ(r.messages, 0u);
  ASSERT_EQ(up.frames_at_root(0).size(), 1u);
  EXPECT_EQ(up.frames_at_root(0)[0][0], 42);
}

// The forwarding rule of UpStreamWords as first written, kept as the
// reference for its schedule: every word a node receives is appended to a
// per-source buffer and copied to an out queue, and neither is trimmed
// until the pass ends.
class ReferenceUpStreamWords : public congest::Program {
 public:
  explicit ReferenceUpStreamWords(TreeView tree) : tree_(tree) {
    const std::size_t n = tree.parent_edge->size();
    initial.resize(n);
    out_q_.resize(n);
    cursor_.assign(n, 0);
    sources_.resize(n);
    active_.assign(n, kNoSource);
    active_remaining_.assign(n, -1);
    partial_.resize(n);
    frames_.resize(n);
  }

  std::vector<std::vector<std::vector<std::int64_t>>> initial;

  void begin(congest::Exec& ex) override {
    const NodeId n = static_cast<NodeId>(out_q_.size());
    for (NodeId v = 0; v < n; ++v) {
      if (!tree_.in(v)) continue;
      if ((*tree_.parent_edge)[v] == kNoEdge) {
        for (const auto& f : initial[v]) frames_[v].push_back(f);
        continue;
      }
      if (!initial[v].empty()) {
        Source local{kLocalSource, {}, 0};
        for (const auto& f : initial[v]) {
          local.buf.push_back(static_cast<std::int64_t>(f.size()));
          local.buf.insert(local.buf.end(), f.begin(), f.end());
        }
        sources_[v].push_back(std::move(local));
        transfer(v);
        pump(ex, v);
      }
    }
  }

  void on_wake(congest::Exec& ex, NodeId v,
               std::span<const congest::Inbound> inbox) override {
    const bool is_root = (*tree_.parent_edge)[v] == kNoEdge;
    for (const congest::Inbound& in : inbox) {
      if (in.msg.tag != kTagWord) continue;
      if (is_root) {
        auto it = std::find_if(
            partial_[v].begin(), partial_[v].end(),
            [&](const Partial& p) { return p.port == in.port; });
        if (it == partial_[v].end()) {
          partial_[v].push_back({in.port, -1, {}});
          it = partial_[v].end() - 1;
        }
        if (it->remaining < 0) {
          it->remaining = in.msg.w[0];
          it->payload.clear();
        } else {
          it->payload.push_back(in.msg.w[0]);
          --it->remaining;
        }
        if (it->remaining == 0) {
          frames_[v].push_back(std::move(it->payload));
          it->remaining = -1;
          it->payload.clear();
        }
        continue;
      }
      auto it = std::find_if(
          sources_[v].begin(), sources_[v].end(),
          [&](const Source& s) { return s.port == in.port; });
      if (it == sources_[v].end()) {
        sources_[v].push_back({in.port, {}, 0});
        it = sources_[v].end() - 1;
      }
      it->buf.push_back(in.msg.w[0]);
    }
    if (!is_root) {
      transfer(v);
      pump(ex, v);
    }
  }

  const std::vector<std::vector<std::int64_t>>& frames_at_root(NodeId r) const {
    return frames_[r];
  }

 private:
  static constexpr std::uint32_t kTagWord = 40;
  static constexpr std::uint32_t kNoSource = static_cast<std::uint32_t>(-1);
  static constexpr std::uint32_t kLocalSource = static_cast<std::uint32_t>(-2);

  void transfer(NodeId v) {
    while (true) {
      if (active_[v] == kNoSource) {
        for (std::uint32_t i = 0; i < sources_[v].size(); ++i) {
          if (sources_[v][i].head < sources_[v][i].buf.size()) {
            active_[v] = i;
            active_remaining_[v] = -1;
            break;
          }
        }
        if (active_[v] == kNoSource) return;
      }
      Source& src = sources_[v][active_[v]];
      bool frame_done = false;
      while (src.head < src.buf.size()) {
        const std::int64_t w = src.buf[src.head++];
        out_q_[v].push_back(w);
        if (active_remaining_[v] < 0) {
          active_remaining_[v] = w;
        } else {
          --active_remaining_[v];
        }
        if (active_remaining_[v] == 0) {
          frame_done = true;
          break;
        }
      }
      if (!frame_done) return;
      active_[v] = kNoSource;
      active_remaining_[v] = -1;
    }
  }

  void pump(congest::Exec& ex, NodeId v) {
    if (cursor_[v] >= out_q_[v].size()) return;
    const EdgeId pe = (*tree_.parent_edge)[v];
    ex.send(v, ex.network().port_of_edge(v, pe),
            congest::Msg::make(kTagWord, out_q_[v][cursor_[v]++]));
    if (cursor_[v] < out_q_[v].size()) ex.wake_next_round(v);
  }

  struct Source {
    std::uint32_t port;
    std::vector<std::int64_t> buf;
    std::size_t head = 0;
  };
  struct Partial {
    std::uint32_t port;
    std::int64_t remaining;
    std::vector<std::int64_t> payload;
  };

  TreeView tree_;
  std::vector<std::vector<std::int64_t>> out_q_;
  std::vector<std::size_t> cursor_;
  std::vector<std::vector<Source>> sources_;
  std::vector<std::uint32_t> active_;
  std::vector<std::int64_t> active_remaining_;
  std::vector<std::vector<Partial>> partial_;
  std::vector<std::vector<std::vector<std::int64_t>>> frames_;
};

// Runs UpStreamWords and the reference on the same forest and frames and
// requires the same rounds, messages and frame order at every root.
// Frames go to roots, interior nodes and leaves alike: each node gets 0-3
// frames (every `heavy`-th node 12) of 0-5 words, so zero-length frames,
// own frames queued behind each other and many converging streams all occur.
void expect_same_schedule(const Graph& g, const PartForest& pf,
                          const std::vector<std::uint8_t>* alive,
                          std::uint64_t seed, NodeId heavy) {
  const TreeView tree{&pf.parent_edge, &pf.children, alive};
  UpStreamWords up(tree);
  ReferenceUpStreamWords ref(tree);
  Rng rng(seed);
  std::size_t injected = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::uint64_t frames =
        v % heavy == heavy - 1 ? 12 : rng.next_below(4);
    for (std::uint64_t f = 0; f < frames; ++f) {
      std::vector<std::int64_t> frame(rng.next_below(6));
      for (auto& w : frame) w = rng.next_in(-1000, 1000);
      up.initial[v].push_back(frame);
      ref.initial[v].push_back(std::move(frame));
      ++injected;
    }
  }
  ASSERT_GT(injected, 0u);

  Network net(g);
  Simulator sim(net);
  const auto got = sim.run(up);
  const auto want = sim.run(ref);
  EXPECT_TRUE(got.quiesced);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_GT(got.messages, 0u);
  std::size_t collected = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(up.frames_at_root(v), ref.frames_at_root(v)) << "node " << v;
    collected += up.frames_at_root(v).size();
  }
  EXPECT_GT(collected, 0u);
}

TEST(UpStreamWords, ScheduleMatchesReferenceOnTrees) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const Graph tree = gen::random_tree(150, rng);
    expect_same_schedule(tree, whole_graph_parts(tree), nullptr, seed, 9);
    const Graph cat = gen::caterpillar(40, 60, rng);
    expect_same_schedule(cat, whole_graph_parts(cat), nullptr, seed + 10, 7);
  }
  const Graph star = gen::star(40);
  expect_same_schedule(star, whole_graph_parts(star), nullptr, 21, 5);
  const Graph path = gen::path(200);
  expect_same_schedule(path, whole_graph_parts(path), nullptr, 22, 13);
}

TEST(UpStreamWords, ScheduleMatchesReferenceOnMaskedForest) {
  // Four copies of one tree, each its own part; the mask drops the whole
  // second copy (as Stage II drops dead parts) plus every fifth node of the
  // others -- roots, interior nodes and leaves -- whose own frames are then
  // not injected, though they still relay what their children send.
  Rng rng(31);
  const Graph one = gen::random_tree(50, rng);
  const Graph g = gen::disjoint_copies(one, 4);
  const PartForest pf = whole_graph_parts(g);
  std::vector<std::uint8_t> alive(g.num_nodes(), 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v / 50 == 1 || v % 5 == 0) alive[v] = 0;
  }
  expect_same_schedule(g, pf, &alive, 32, 6);
}

}  // namespace
}  // namespace cpt
