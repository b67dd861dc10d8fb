#include "congest/primitives.h"

#include <algorithm>

#include "util/contracts.h"

namespace cpt::congest {
namespace {

enum Tag : std::uint32_t {
  kTagRecord = 1,
  kTagDone = 2,
  kTagWave = 3,
  kTagChild = 4,
  // Pipelined streams: the stream's last record, folding the DONE marker
  // into the payload round (see primitives.h).
  kTagLast = 5,
};

constexpr std::uint32_t kNil = RecordTable::kNilSlot;

}  // namespace

// ---------------------------------------------------------------- TreePorts

void TreePorts::build(const Network& net, const std::vector<EdgeId>& parent_edge,
                      const std::vector<std::vector<EdgeId>>& children) {
  const std::size_t n = parent_edge.size();
  parent_port.assign(n, 0);
  if (child_offset.size() != n + 1) child_offset.assign(n + 1, 0);
  std::size_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    total += children[v].size();
    child_offset[v + 1] = static_cast<std::uint32_t>(total);
  }
  child_port.clear();
  child_port.reserve(total);
  for (NodeId v = 0; v < n; ++v) {
    if (parent_edge[v] != kNoEdge) {
      parent_port[v] = net.port_of_edge(v, parent_edge[v]);
    }
    for (const EdgeId ce : children[v]) {
      child_port.push_back(net.port_of_edge(v, ce));
    }
  }
}

// ---------------------------------------------------------------- Converge

ConvergeRecords::ConvergeRecords(TreeView tree, Combine combine, std::uint32_t cap) {
  reset(tree, combine, cap);
}

void ConvergeRecords::reset(TreeView tree, Combine combine, std::uint32_t cap,
                            const TreePorts* ports, bool pipelined) {
  CPT_EXPECTS(tree.parent_edge != nullptr && tree.children != nullptr);
  tree_ = tree;
  combine_ = combine;
  cap_ = cap;
  ports_ = ports;
  pipelined_ = pipelined;
  const std::size_t n = tree_.parent_edge->size();
  initial.reset(n);
  merged_.reset(n);
  if (tree.members != nullptr && overflow_.size() == n) {
    // Participant-list re-arm: only participants' state was dirtied since
    // the last full clear (the pass only ever touches participants), so
    // clearing the members is enough -- O(participants), not O(n).
    for (const NodeId v : *tree.members) {
      overflow_[v] = 0;
      ovf_sent_[v] = 0;
      pending_[v] = 0;
      done_sent_[v] = 0;
    }
  } else {
    overflow_.assign(n, 0);
    ovf_sent_.assign(n, 0);
    pending_.assign(n, 0);
    done_sent_.assign(n, 0);
  }
}

void ConvergeRecords::merge_record(NodeId v, Record r) {
  if (overflow_[v]) return;
  if (r.key == kOverflowKey) {
    overflow_[v] = 1;
    merged_.clear_row(v);
    return;
  }
  for (Record& have : merged_[v]) {
    if (have.key == r.key) {
      switch (combine_) {
        case Combine::kSum: have.value += r.value; break;
        case Combine::kMin: have.value = std::min(have.value, r.value); break;
        case Combine::kMax: have.value = std::max(have.value, r.value); break;
      }
      return;
    }
  }
  merged_.push(v, r);
  if (cap_ != 0 && merged_.size(v) > cap_) {
    overflow_[v] = 1;
    merged_.clear_row(v);
  }
}

void ConvergeRecords::pump(Exec& ex, NodeId v) {
  // Stream one record (or the final DONE / LAST) per round toward the parent.
  if (done_sent_[v]) return;
  CPT_ASSERT((*tree_.parent_edge)[v] != kNoEdge);
  const std::uint32_t port = parent_ports_[v];
  if (overflow_[v]) {
    // The outgoing stream of an overflowed node is a single overflow record.
    if (pipelined_) {
      ex.send(v, port, Msg::make(kTagLast,
                                 static_cast<std::int64_t>(kOverflowKey), 1));
      done_sent_[v] = 1;
    } else if (!ovf_sent_[v]) {
      ex.send(v, port, Msg::make(kTagRecord,
                                 static_cast<std::int64_t>(kOverflowKey), 1));
      ovf_sent_[v] = 1;
      ex.wake_next_round(v);
    } else {
      ex.send(v, port, Msg::make(kTagDone));
      done_sent_[v] = 1;
    }
    return;
  }
  const std::uint32_t slot = merged_.cursor(v);
  if (slot == kNil) {
    ex.send(v, port, Msg::make(kTagDone));
    done_sent_[v] = 1;
    return;
  }
  const Record& r = merged_.at_slot(slot);
  const std::uint32_t next = merged_.next_slot(slot);
  merged_.set_cursor(v, next);
  if (pipelined_ && next == kNil) {
    ex.send(v, port, Msg::make(kTagLast, static_cast<std::int64_t>(r.key),
                               r.value));
    done_sent_[v] = 1;
    return;
  }
  ex.send(v, port, Msg::make(kTagRecord, static_cast<std::int64_t>(r.key),
                             r.value));
  ex.wake_next_round(v);
}

void ConvergeRecords::finalize(Exec& ex, NodeId v) {
  for (const Record& r : initial[v]) merge_record(v, r);
  if ((*tree_.parent_edge)[v] == kNoEdge) return;  // root keeps its result
  merged_.set_cursor(v, merged_.head_slot(v));
  pump(ex, v);
}

void ConvergeRecords::begin(Exec& ex) {
  const NodeId n = static_cast<NodeId>(tree_.parent_edge->size());
  if (ports_ != nullptr) {
    parent_ports_ = ports_->parent_port.data();
    const std::uint32_t* off = ports_->child_offset.data();
    const auto arm = [&](NodeId v) {
      pending_[v] = off[v + 1] - off[v];
      if (pending_[v] == 0) finalize(ex, v);
    };
    if (tree_.members != nullptr) {
      for (const NodeId v : *tree_.members) arm(v);
    } else {
      for (NodeId v = 0; v < n; ++v) {
        if (tree_.in(v)) arm(v);
      }
    }
    return;
  }
  // No shared port cache: fill the pass's own. With a members list only
  // participants' entries are (re)written -- stale entries of previous
  // passes are never read, since pump() only runs at participants.
  if (tree_.members != nullptr && parent_port_.size() == n) {
    for (const NodeId v : *tree_.members) {
      const EdgeId pe = (*tree_.parent_edge)[v];
      parent_port_[v] = pe != kNoEdge ? ex.network().port_of_edge(v, pe) : 0;
    }
  } else {
    parent_port_.assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (!tree_.in(v)) continue;
      const EdgeId pe = (*tree_.parent_edge)[v];
      if (pe != kNoEdge) parent_port_[v] = ex.network().port_of_edge(v, pe);
    }
  }
  parent_ports_ = parent_port_.data();
  const auto arm = [&](NodeId v) {
    pending_[v] = static_cast<std::uint32_t>((*tree_.children)[v].size());
    if (pending_[v] == 0) finalize(ex, v);
  };
  if (tree_.members != nullptr) {
    for (const NodeId v : *tree_.members) arm(v);
  } else {
    for (NodeId v = 0; v < n; ++v) {
      if (tree_.in(v)) arm(v);
    }
  }
}

void ConvergeRecords::on_wake(Exec& ex, NodeId v,
                              std::span<const Inbound> inbox) {
  bool finalized_now = false;
  for (const Inbound& in : inbox) {
    if (in.msg.tag == kTagRecord) {
      merge_record(v, {static_cast<std::uint64_t>(in.msg.w[0]), in.msg.w[1]});
    } else if (in.msg.tag == kTagLast) {
      merge_record(v, {static_cast<std::uint64_t>(in.msg.w[0]), in.msg.w[1]});
      CPT_ASSERT(pending_[v] > 0);
      if (--pending_[v] == 0) finalized_now = true;
    } else if (in.msg.tag == kTagDone) {
      CPT_ASSERT(pending_[v] > 0);
      if (--pending_[v] == 0) finalized_now = true;
    }
  }
  if (finalized_now) {
    finalize(ex, v);
  } else if (pending_[v] == 0 && !done_sent_[v] &&
             (*tree_.parent_edge)[v] != kNoEdge) {
    pump(ex, v);  // wake-up to continue draining the queue
  }
}

// ---------------------------------------------------------------- Broadcast

BroadcastRecords::BroadcastRecords(TreeView tree) { reset(tree); }

void BroadcastRecords::reset(TreeView tree, const TreePorts* ports,
                             bool pipelined) {
  CPT_EXPECTS(tree.parent_edge != nullptr && tree.children != nullptr);
  tree_ = tree;
  ports_ = ports;
  pipelined_ = pipelined;
  const std::size_t n = tree_.parent_edge->size();
  stream.reset(n);
  received.reset(n);
  // Pipelined streams pump straight out of `stream` (roots) / `received`
  // (relays) via the rows' cursors: no queue copy at all.
  if (!pipelined_) queue_.reset(n);
  if (tree.members != nullptr && end_queued_.size() == n) {
    for (const NodeId v : *tree.members) end_queued_[v] = 0;
  } else {
    end_queued_.assign(n, 0);
  }
}

void BroadcastRecords::queue_push(NodeId v, Record r) {
  queue_.push(v, r);
  // Repair the send cursor of a drained (or fresh) row so pump resumes.
  if (queue_.cursor(v) == kNil) queue_.set_cursor(v, queue_.tail_slot(v));
}

void BroadcastRecords::pump(Exec& ex, NodeId v) {
  RecordTable& src =
      pipelined_
          ? ((*tree_.parent_edge)[v] == kNoEdge ? stream : received)
          : queue_;
  const std::uint32_t slot = src.cursor(v);
  if (slot == kNil) return;
  const std::uint32_t next = src.next_slot(slot);
  const bool is_end = end_queued_[v] && next == kNil;
  const Record& r = src.at_slot(slot);
  const Msg msg = Msg::make(
      is_end ? (pipelined_ ? kTagLast : kTagDone) : kTagRecord,
      static_cast<std::int64_t>(r.key), r.value);
  for (std::uint32_t i = child_offset_view_[v]; i < child_offset_view_[v + 1];
       ++i) {
    ex.send(v, child_port_view_[i], msg);
  }
  src.set_cursor(v, next);
  if (next != kNil) ex.wake_next_round(v);
}

void BroadcastRecords::start_root(Exec& ex, NodeId v) {
  if (!tree_.in(v)) return;
  if ((*tree_.parent_edge)[v] != kNoEdge) return;  // not a root
  if (stream[v].empty() || !has_children(v)) return;
  if (pipelined_) {
    stream.set_cursor(v, stream.head_slot(v));
  } else {
    queue_[v] = stream[v];
    queue_.push(v, {});  // end marker, sent as DONE
    queue_.set_cursor(v, queue_.head_slot(v));
  }
  end_queued_[v] = 1;
  pump(ex, v);
}

void BroadcastRecords::begin(Exec& ex) {
  const NodeId n = static_cast<NodeId>(tree_.parent_edge->size());
  if (ports_ != nullptr) {
    child_port_view_ = ports_->child_port.data();
    child_offset_view_ = ports_->child_offset.data();
  } else {
    child_ports_offset_.assign(n + 1, 0);
    std::size_t total_children = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (tree_.in(v)) total_children += (*tree_.children)[v].size();
      child_ports_offset_[v + 1] = static_cast<std::uint32_t>(total_children);
    }
    child_ports_.clear();
    child_ports_.reserve(total_children);
    for (NodeId v = 0; v < n; ++v) {
      if (!tree_.in(v)) continue;
      for (const EdgeId ce : (*tree_.children)[v]) {
        child_ports_.push_back(ex.network().port_of_edge(v, ce));
      }
    }
    child_port_view_ = child_ports_.data();
    child_offset_view_ = child_ports_offset_.data();
  }
  if (tree_.roots != nullptr) {
    for (const NodeId r : *tree_.roots) start_root(ex, r);
  } else if (tree_.members != nullptr) {
    for (const NodeId r : *tree_.members) start_root(ex, r);
  } else {
    for (NodeId v = 0; v < n; ++v) start_root(ex, v);
  }
}

void BroadcastRecords::on_wake(Exec& ex, NodeId v,
                               std::span<const Inbound> inbox) {
  const bool relay = has_children(v);
  for (const Inbound& in : inbox) {
    if (in.msg.tag == kTagRecord) {
      const Record r{static_cast<std::uint64_t>(in.msg.w[0]), in.msg.w[1]};
      received.push(v, r);
      if (relay) {
        if (pipelined_) {
          if (received.cursor(v) == kNil) {
            received.set_cursor(v, received.tail_slot(v));
          }
        } else {
          queue_push(v, r);
        }
      }
    } else if (in.msg.tag == kTagLast) {
      const Record r{static_cast<std::uint64_t>(in.msg.w[0]), in.msg.w[1]};
      received.push(v, r);
      if (relay && received.cursor(v) == kNil) {
        received.set_cursor(v, received.tail_slot(v));
      }
      end_queued_[v] = 1;
    } else if (in.msg.tag == kTagDone) {
      if (relay) queue_push(v, {});
      end_queued_[v] = 1;
    }
  }
  if (relay) pump(ex, v);
}

// ----------------------------------------------------------------- Exchange

void Exchange::begin(Exec& ex) {
  std::vector<std::pair<std::uint32_t, Msg>> out;
  const auto emit = [&](NodeId v) {
    out.clear();
    outgoing_(v, out);
    for (const auto& [port, msg] : out) ex.send(v, port, msg);
  };
  if (senders_ != nullptr) {
    for (const NodeId v : *senders_) emit(v);
  } else {
    for (NodeId v = 0; v < num_nodes_; ++v) emit(v);
  }
}

void Exchange::on_wake(Exec&, NodeId v, std::span<const Inbound> inbox) {
  if (collect_) collect_(v, inbox);
}

// ---------------------------------------------------------------- BfsForest

BfsForest::BfsForest(const std::vector<NodeId>& part_root)
    : part_root_(&part_root) {
  const std::size_t n = part_root.size();
  parent_edge.assign(n, kNoEdge);
  children.assign(n, {});
  level.assign(n, 0);
  joined_.assign(n, 0);
}

void BfsForest::begin(Exec& ex) {
  const NodeId n = static_cast<NodeId>(part_root_->size());
  for (NodeId v = 0; v < n; ++v) {
    if ((*part_root_)[v] != v) continue;  // not a root
    joined_[v] = 1;
    level[v] = 0;
    for (std::uint32_t p = 0; p < ex.network().port_count(v); ++p) {
      ex.send(v, p, Msg::make(kTagWave, static_cast<std::int64_t>(v), 0));
    }
  }
}

void BfsForest::on_wake(Exec& ex, NodeId v, std::span<const Inbound> inbox) {
  for (const Inbound& in : inbox) {
    if (in.msg.tag == kTagChild) {
      children[v].push_back(ex.network().arc(v, in.port).edge);
      continue;
    }
    if (in.msg.tag != kTagWave) continue;
    const NodeId wave_root = static_cast<NodeId>(in.msg.w[0]);
    if (wave_root != (*part_root_)[v]) continue;  // foreign part's wave
    if (joined_[v]) continue;
    joined_[v] = 1;
    parent_edge[v] = ex.network().arc(v, in.port).edge;
    level[v] = static_cast<std::uint32_t>(in.msg.w[1]) + 1;
    for (std::uint32_t p = 0; p < ex.network().port_count(v); ++p) {
      if (p == in.port) {
        ex.send(v, p, Msg::make(kTagChild));
      } else {
        ex.send(v, p, Msg::make(kTagWave, static_cast<std::int64_t>(wave_root),
                                level[v]));
      }
    }
  }
}

}  // namespace cpt::congest
