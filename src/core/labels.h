// Stage II labeling (Section 2.2.2): child edges are labeled by their rank
// in the node's rotation (circular order starting just after the parent
// edge; the root starts at an arbitrary incident edge), and a node's label
// is the concatenation of edge labels along its BFS-tree path from the
// root. Labels compare lexicographically (footnote 5), which is exactly
// std::vector's operator<.
//
// Also the three label-plumbing CONGEST passes:
//   * LabelDistribute -- pipelined distribution of node labels down the
//     BFS trees (one word per edge per round);
//   * EdgeLabelStream -- endpoints stream their label across selected
//     (non-tree) edges;
//   * UpStreamWords -- framed word streams converging to the roots (used to
//     collect sampled edge label pairs).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/primitives.h"
#include "congest/simulator.h"
#include "planar/embedding.h"

namespace cpt {

using Label = std::vector<std::uint32_t>;

// Per node: labels of its BFS-children edges, aligned with bfs_children[v].
// Children are ranked 1..k by rotation order starting after the parent edge.
std::vector<std::vector<std::uint32_t>> child_edge_labels(
    const Graph& g, const RotationSystem& rotation,
    const std::vector<EdgeId>& bfs_parent,
    const std::vector<std::vector<EdgeId>>& bfs_children);

// ---- Passes ----------------------------------------------------------------

class LabelDistribute : public congest::Program {
 public:
  // `alive_root[v]`: whether v's part participates (dead parts -- e.g.
  // rejected by the edge-count check -- are skipped). child_labels aligned
  // with tree.children lists.
  LabelDistribute(congest::TreeView tree,
                  const std::vector<std::vector<std::uint32_t>>& child_labels);

  void begin(congest::Exec& ex) override;
  void on_wake(congest::Exec& ex, NodeId v,
               std::span<const congest::Inbound> inbox) override;

  const Label& label(NodeId v) const { return label_[v]; }
  std::uint32_t max_label_len() const;

 private:
  void step(congest::Exec& ex, NodeId v);

  congest::TreeView tree_;
  const std::vector<std::vector<std::uint32_t>>* child_labels_;
  std::vector<Label> label_;
  std::vector<std::uint32_t> forward_idx_;
  std::vector<std::uint8_t> got_end_;
  std::vector<std::uint8_t> tail_sent_;
  std::vector<std::uint8_t> end_sent_;
};

class EdgeLabelStream : public congest::Program {
 public:
  // Each node streams `labels[v]` + END over every port in send_ports[v].
  EdgeLabelStream(NodeId n, const std::vector<Label>& labels,
                  const std::vector<std::vector<std::uint32_t>>& send_ports);

  void begin(congest::Exec& ex) override;
  void on_wake(congest::Exec& ex, NodeId v,
               std::span<const congest::Inbound> inbox) override;

  // Completed incoming labels per node as (port, label) pairs.
  const std::vector<std::vector<std::pair<std::uint32_t, Label>>>& received()
      const {
    return done_;
  }

 private:
  void step(congest::Exec& ex, NodeId v);

  const std::vector<Label>* labels_;
  const std::vector<std::vector<std::uint32_t>>* send_ports_;
  std::vector<std::uint32_t> cursor_;
  std::vector<std::uint8_t> end_sent_;
  std::vector<std::vector<std::pair<std::uint32_t, Label>>> partial_;
  std::vector<std::vector<std::pair<std::uint32_t, Label>>> done_;
};

// Framed word streams up the trees: each frame is [payload_len, payload...].
// Forwarding is cut-through with frame granularity: a node's own injected
// frames are committed first; then it commits to the first child port (in
// first-arrival order) with a buffered word until that frame completes,
// buffering the other inputs meanwhile -- so frames never interleave, yet a
// frame crosses the tree pipelined (total rounds ~ depth + total words, not
// depth * words).
//
// Memory: a non-root node holds only the words it has received or injected
// but not yet sent. Every queue drops its sent prefix once that prefix is
// at least half of it, so a pass holds O(words in flight), not O(messages
// sent); roots keep the reassembled frames, which are the result.
class UpStreamWords : public congest::Program {
 public:
  explicit UpStreamWords(congest::TreeView tree);

  // Caller fills frames to inject at each node before running.
  std::vector<std::vector<std::vector<std::int64_t>>> initial;

  void begin(congest::Exec& ex) override;
  void on_wake(congest::Exec& ex, NodeId v,
               std::span<const congest::Inbound> inbox) override;

  const std::vector<std::vector<std::int64_t>>& frames_at_root(NodeId r) const {
    return frames_[r];
  }

 private:
  static constexpr std::uint32_t kNoSource = static_cast<std::uint32_t>(-1);

  // FIFO of words. pop() drops the consumed prefix once it is at least half
  // the storage, so the storage stays under twice the pending words and each
  // word is moved O(1) times amortized.
  struct WordQueue {
    std::vector<std::int64_t> words;
    std::size_t head = 0;  // first pending word

    bool empty() const { return head == words.size(); }
    std::int64_t pop();
  };

  // Appends a word of v's committed frame to its out queue; returns true
  // (and uncommits) when that word ends the frame.
  bool forward(NodeId v, std::int64_t word);
  void transfer(NodeId v);  // move buffered words to the out queue
  void pump(congest::Exec& ex, NodeId v);

  // One input stream per child port that has sent.
  struct Source {
    std::uint32_t port;
    WordQueue buf;
  };

  congest::TreeView tree_;
  std::vector<std::uint32_t> parent_port_;  // per non-root node, set in begin
  std::vector<WordQueue> out_q_;            // words to send upward
  std::vector<std::vector<Source>> sources_;
  std::vector<std::uint32_t> active_;           // index into sources_[v]
  std::vector<std::int64_t> active_remaining_;  // frame words left (-1: header next)
  // Root-side frame reassembly per receiving port.
  struct Partial {
    std::uint32_t port;
    std::int64_t remaining;  // payload words still expected (-1: want header)
    std::vector<std::int64_t> payload;
  };
  std::vector<std::vector<Partial>> partial_;
  std::vector<std::vector<std::vector<std::int64_t>>> frames_;  // at roots
};

}  // namespace cpt
