#include "core/labels.h"

#include <algorithm>

#include "util/contracts.h"

namespace cpt {

using congest::Inbound;
using congest::Msg;
using congest::Exec;

namespace {
constexpr std::uint32_t kTagWord = 40;
constexpr std::uint32_t kTagEnd = 41;
}  // namespace

std::vector<std::vector<std::uint32_t>> child_edge_labels(
    const Graph& g, const RotationSystem& rotation,
    const std::vector<EdgeId>& bfs_parent,
    const std::vector<std::vector<EdgeId>>& bfs_children) {
  const NodeId n = g.num_nodes();
  std::vector<std::vector<std::uint32_t>> labels(n);
  std::vector<std::uint32_t> rank_of_edge;  // scratch, keyed by edge
  for (NodeId v = 0; v < n; ++v) {
    const auto& rot = rotation[v];
    const auto& kids = bfs_children[v];
    labels[v].assign(kids.size(), 0);
    if (kids.empty()) continue;
    // Nodes of parts that dropped out earlier (edge-bound reject) have no
    // rotation; their labels are never used.
    if (rot.size() != g.degree(v)) continue;
    // Start position: just after the parent edge; roots start at rot[0].
    std::size_t start = 0;
    if (bfs_parent[v] != kNoEdge) {
      const auto it = std::find(rot.begin(), rot.end(), bfs_parent[v]);
      CPT_ASSERT(it != rot.end());
      start = static_cast<std::size_t>(it - rot.begin()) + 1;
    }
    // Rank child edges by rotation order from `start`.
    std::uint32_t next_rank = 1;
    for (std::size_t off = 0; off < rot.size(); ++off) {
      const EdgeId e = rot[(start + off) % rot.size()];
      for (std::size_t i = 0; i < kids.size(); ++i) {
        if (kids[i] == e) {
          labels[v][i] = next_rank++;
          break;
        }
      }
    }
    CPT_ASSERT(next_rank == kids.size() + 1);
  }
  return labels;
}

// ---------------------------------------------------------- LabelDistribute

LabelDistribute::LabelDistribute(
    congest::TreeView tree,
    const std::vector<std::vector<std::uint32_t>>& child_labels)
    : tree_(tree), child_labels_(&child_labels) {
  const std::size_t n = tree.parent_edge->size();
  label_.resize(n);
  forward_idx_.assign(n, 0);
  got_end_.assign(n, 0);
  tail_sent_.assign(n, 0);
  end_sent_.assign(n, 0);
}

void LabelDistribute::begin(Exec& ex) {
  const NodeId n = static_cast<NodeId>(label_.size());
  for (NodeId v = 0; v < n; ++v) {
    if (!tree_.in(v)) continue;
    if ((*tree_.parent_edge)[v] != kNoEdge) continue;  // not a root
    got_end_[v] = 1;  // root's own label is empty and final
    if (!(*tree_.children)[v].empty()) ex.wake_next_round(v);
  }
}

void LabelDistribute::step(Exec& ex, NodeId v) {
  const auto& kids = (*tree_.children)[v];
  if (kids.empty()) return;
  if (forward_idx_[v] < label_[v].size()) {
    const std::int64_t word = label_[v][forward_idx_[v]++];
    for (const EdgeId ce : kids) {
      ex.send(v, ex.network().port_of_edge(v, ce), Msg::make(kTagWord, word));
    }
    ex.wake_next_round(v);
    return;
  }
  if (got_end_[v] && !tail_sent_[v]) {
    for (std::size_t i = 0; i < kids.size(); ++i) {
      ex.send(v, ex.network().port_of_edge(v, kids[i]),
               Msg::make(kTagWord, (*child_labels_)[v][i]));
    }
    tail_sent_[v] = 1;
    ex.wake_next_round(v);
    return;
  }
  if (got_end_[v] && tail_sent_[v] && !end_sent_[v]) {
    for (const EdgeId ce : kids) {
      ex.send(v, ex.network().port_of_edge(v, ce), Msg::make(kTagEnd));
    }
    end_sent_[v] = 1;
  }
}

void LabelDistribute::on_wake(Exec& ex, NodeId v,
                              std::span<const Inbound> inbox) {
  for (const Inbound& in : inbox) {
    if (in.msg.tag == kTagWord) {
      label_[v].push_back(static_cast<std::uint32_t>(in.msg.w[0]));
    } else if (in.msg.tag == kTagEnd) {
      got_end_[v] = 1;
    }
  }
  step(ex, v);
}

std::uint32_t LabelDistribute::max_label_len() const {
  std::size_t best = 0;
  for (const Label& l : label_) best = std::max(best, l.size());
  return static_cast<std::uint32_t>(best);
}

// ---------------------------------------------------------- EdgeLabelStream

EdgeLabelStream::EdgeLabelStream(
    NodeId n, const std::vector<Label>& labels,
    const std::vector<std::vector<std::uint32_t>>& send_ports)
    : labels_(&labels), send_ports_(&send_ports) {
  cursor_.assign(n, 0);
  end_sent_.assign(n, 0);
  partial_.resize(n);
  done_.resize(n);
}

void EdgeLabelStream::begin(Exec& ex) {
  const NodeId n = static_cast<NodeId>(cursor_.size());
  for (NodeId v = 0; v < n; ++v) {
    if (!(*send_ports_)[v].empty()) step(ex, v);
  }
}

void EdgeLabelStream::step(Exec& ex, NodeId v) {
  const auto& ports = (*send_ports_)[v];
  if (ports.empty() || end_sent_[v]) return;
  const Label& label = (*labels_)[v];
  if (cursor_[v] < label.size()) {
    const std::int64_t word = label[cursor_[v]++];
    for (const std::uint32_t p : ports) {
      ex.send(v, p, Msg::make(kTagWord, word));
    }
    ex.wake_next_round(v);
  } else {
    for (const std::uint32_t p : ports) {
      ex.send(v, p, Msg::make(kTagEnd));
    }
    end_sent_[v] = 1;
  }
}

void EdgeLabelStream::on_wake(Exec& ex, NodeId v,
                              std::span<const Inbound> inbox) {
  for (const Inbound& in : inbox) {
    if (in.msg.tag == kTagWord) {
      auto it = std::find_if(partial_[v].begin(), partial_[v].end(),
                             [&](const auto& pr) { return pr.first == in.port; });
      if (it == partial_[v].end()) {
        partial_[v].push_back({in.port, {}});
        it = partial_[v].end() - 1;
      }
      it->second.push_back(static_cast<std::uint32_t>(in.msg.w[0]));
    } else if (in.msg.tag == kTagEnd) {
      auto it = std::find_if(partial_[v].begin(), partial_[v].end(),
                             [&](const auto& pr) { return pr.first == in.port; });
      if (it != partial_[v].end()) {
        done_[v].push_back(std::move(*it));
        partial_[v].erase(it);
      } else {
        done_[v].push_back({in.port, {}});  // empty label (root endpoint)
      }
    }
  }
  step(ex, v);
}

// ------------------------------------------------------------ UpStreamWords

std::int64_t UpStreamWords::WordQueue::pop() {
  const std::int64_t w = words[head++];
  if (2 * head >= words.size()) {
    words.erase(words.begin(),
                words.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  return w;
}

UpStreamWords::UpStreamWords(congest::TreeView tree) : tree_(tree) {
  const std::size_t n = tree.parent_edge->size();
  initial.resize(n);
  parent_port_.assign(n, 0);
  out_q_.resize(n);
  sources_.resize(n);
  active_.assign(n, kNoSource);
  active_remaining_.assign(n, -1);
  partial_.resize(n);
  frames_.resize(n);
}

bool UpStreamWords::forward(NodeId v, std::int64_t word) {
  out_q_[v].words.push_back(word);
  std::int64_t& left = active_remaining_[v];
  left = left < 0 ? word : left - 1;  // a header carries the payload length
  if (left != 0) return false;
  left = -1;
  active_[v] = kNoSource;
  return true;
}

void UpStreamWords::transfer(NodeId v) {
  // Move buffered words into the out queue, cut-through: commit to one
  // source until its current frame is fully moved; then pick the next
  // source with buffered data.
  std::vector<Source>& srcs = sources_[v];
  while (true) {
    if (active_[v] == kNoSource) {
      const auto it =
          std::find_if(srcs.begin(), srcs.end(),
                       [](const Source& s) { return !s.buf.empty(); });
      if (it == srcs.end()) return;  // nothing buffered anywhere
      active_[v] = static_cast<std::uint32_t>(it - srcs.begin());
    }
    WordQueue& buf = srcs[active_[v]].buf;
    do {
      if (buf.empty()) return;  // mid-frame: wait for more words of this source
    } while (!forward(v, buf.pop()));
  }
}

void UpStreamWords::pump(Exec& ex, NodeId v) {
  WordQueue& q = out_q_[v];
  if (q.empty()) return;
  CPT_ASSERT((*tree_.parent_edge)[v] != kNoEdge);
  ex.send(v, parent_port_[v], Msg::make(kTagWord, q.pop()));
  if (!q.empty()) ex.wake_next_round(v);
}

void UpStreamWords::begin(Exec& ex) {
  const NodeId n = static_cast<NodeId>(out_q_.size());
  for (NodeId v = 0; v < n; ++v) {
    const EdgeId pe = (*tree_.parent_edge)[v];
    if (pe != kNoEdge) parent_port_[v] = ex.network().port_of_edge(v, pe);
    if (!tree_.in(v) || initial[v].empty()) continue;
    if (pe == kNoEdge) {
      // Root: its own frames go straight to the result.
      for (const auto& f : initial[v]) frames_[v].push_back(f);
      continue;
    }
    // Own frames are committed before any child's, so they enter the out
    // queue whole.
    std::vector<std::int64_t>& q = out_q_[v].words;
    for (const auto& f : initial[v]) {
      q.push_back(static_cast<std::int64_t>(f.size()));
      q.insert(q.end(), f.begin(), f.end());
    }
    pump(ex, v);
  }
}

void UpStreamWords::on_wake(Exec& ex, NodeId v,
                            std::span<const Inbound> inbox) {
  const bool is_root = (*tree_.parent_edge)[v] == kNoEdge;
  for (const Inbound& in : inbox) {
    if (in.msg.tag != kTagWord) continue;
    if (is_root) {
      // Reassemble frames directly.
      auto it = std::find_if(partial_[v].begin(), partial_[v].end(),
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
    std::vector<Source>& srcs = sources_[v];
    auto it = std::find_if(srcs.begin(), srcs.end(),
                           [&](const Source& s) { return s.port == in.port; });
    if (it == srcs.end()) {
      srcs.push_back({in.port, {}});
      it = srcs.end() - 1;
    }
    // The committed source's word skips its buffer when that is empty:
    // transfer() would move it to the out queue next anyway.
    if (active_[v] == static_cast<std::uint32_t>(it - srcs.begin()) &&
        it->buf.empty()) {
      forward(v, in.msg.w[0]);
    } else {
      it->buf.words.push_back(in.msg.w[0]);
    }
  }
  if (!is_root) {
    transfer(v);
    pump(ex, v);
  }
}

}  // namespace cpt
