// Reusable message-passing building blocks, each a genuine CONGEST node
// program: record convergecast and broadcast over rooted part trees
// (store-and-forward, one record per edge per round -- so record volume
// costs rounds, as in the paper's emulation accounting), a one-round
// neighbor exchange, and a per-part BFS tree builder.
//
// Buffer pooling contract: every per-node table of these passes is a
// RecordTable (see congest/record_table.h) -- one slot arena per table,
// rows as slot chains, reset by bumping a watermark and clearing only the
// rows touched since the previous reset. Drivers that own one pass object
// and reset() it per use are allocation-free in steady state, and a reset
// costs O(rows touched), not O(n).
//
// Participant lists: a TreeView may carry `members`, the exact node set
// taking part in the pass. Converge/broadcast then iterate participants in
// begin() and re-arm only participants' state in reset(), killing the
// O(n)-per-pass sweeps of early-phase masked passes (ROADMAP item). The
// emulated schedule is unchanged -- members never alters who sends what
// when, only how the host iterates.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "congest/record_table.h"
#include "congest/simulator.h"

namespace cpt::congest {

// A rooted spanning forest over (a subset of) the network's nodes.
// parent_edge[v] == kNoEdge marks part roots; children[v] lists tree edges
// to v's children. An optional participation mask restricts the pass. An
// optional `roots` list names every node that may source a broadcast
// stream (e.g. PartForest::live_roots()): passes that only need to visit
// stream sources then skip their O(n) root sweep. An optional `members`
// list names every participating node -- when `participates` is set it
// must list exactly the mask's nodes; when the mask is null it must cover
// every node the pass can touch (senders, relays and receivers).
struct TreeView {
  const std::vector<EdgeId>* parent_edge = nullptr;
  const std::vector<std::vector<EdgeId>>* children = nullptr;
  const std::vector<std::uint8_t>* participates = nullptr;  // optional
  const std::vector<NodeId>* roots = nullptr;               // optional
  const std::vector<NodeId>* members = nullptr;             // optional

  bool in(NodeId v) const {
    return participates == nullptr || (*participates)[v] != 0;
  }
};

// Precomputed tree-edge ports for a rooted forest: the port of each node's
// parent edge, and each node's child-edge ports in CSR layout. The forest
// topology is fixed between contractions, so drivers running many converge
// / broadcast passes over the same trees build one TreePorts and hand it to
// every reset(): the passes then skip their per-pass port_of_edge sweeps.
struct TreePorts {
  std::vector<std::uint32_t> parent_port;        // per node (0 at roots)
  std::vector<std::uint32_t> child_port;         // CSR payload
  std::vector<std::uint32_t> child_offset;       // size n+1

  void build(const Network& net, const std::vector<EdgeId>& parent_edge,
             const std::vector<std::vector<EdgeId>>& children);
};

// Clears a per-node record-list table in place, keeping every inner
// buffer's capacity. Survives for the few cold-path tables still shaped as
// vector-of-vectors (e.g. PeelingResult::out_records); hot-path scratch
// uses RecordTable::reset instead.
inline void clear_record_table(std::vector<std::vector<Record>>& table,
                               std::size_t n) {
  if (table.size() != n) {
    table.assign(n, {});
    return;
  }
  for (auto& recs : table) recs.clear();
}

enum class Combine { kSum, kMin, kMax };

// Convergecast: each participating node merges its children's record sets
// with its own (by key, with the given combine), then streams the result to
// its parent one record per round, terminated by a DONE marker. Roots
// deposit their merged set in `at_root()`.
//
// Pipelined mode folds the DONE marker into the stream's last record (a
// LAST tag), so a stream of L >= 1 records costs L sends per tree edge
// instead of L+1 -- strictly fewer rounds and messages, same merged
// results. Unpipelined mode reproduces the original schedule exactly;
// the differential tests cross-check the two.
class ConvergeRecords : public Program {
 public:
  // A default-constructed pass is an empty shell: reset() must run before
  // the simulator does.
  ConvergeRecords() = default;
  ConvergeRecords(TreeView tree, Combine combine, std::uint32_t cap);

  // Re-arms the pass for a fresh run, keeping every per-node buffer's
  // capacity. Drivers that run one converge pass per phase should own one
  // ConvergeRecords and reset() it instead of constructing a new one: the
  // steady state is then allocation-free. `ports` (optional, must outlive
  // the run and match `tree`) skips the per-pass parent-port sweep. When
  // `tree.members` is set, reset() re-arms only the members' state --
  // O(participants), not O(n) -- relying on the contract that only
  // participants' state was dirtied since the arrays were last fully
  // cleared.
  void reset(TreeView tree, Combine combine, std::uint32_t cap,
             const TreePorts* ports = nullptr, bool pipelined = false);

  // Caller fills `initial[v]` (distinct keys per node) before running.
  RecordTable initial;

  void begin(Exec& ex) override;
  void on_wake(Exec& ex, NodeId v, std::span<const Inbound> inbox) override;

  RecordTable::ConstRow at_root(NodeId root) const { return merged_[root]; }
  bool overflowed(NodeId root) const { return overflow_[root] != 0; }

 private:
  void merge_record(NodeId v, Record r);
  void finalize(Exec& ex, NodeId v);
  void pump(Exec& ex, NodeId v);

  TreeView tree_;
  Combine combine_ = Combine::kSum;
  std::uint32_t cap_ = 0;
  bool pipelined_ = false;
  RecordTable merged_;                  // row cursor = next record to send
  std::vector<std::uint8_t> overflow_;
  std::vector<std::uint8_t> ovf_sent_;  // overflow record already streamed
  std::vector<std::uint32_t> pending_;  // children DONEs still expected
  std::vector<std::uint8_t> done_sent_;
  std::vector<std::uint32_t> parent_port_;  // own cache, filled in begin()
  const TreePorts* ports_ = nullptr;        // shared cache, overrides own
  const std::uint32_t* parent_ports_ = nullptr;  // active view (set in begin)
};

// Broadcast: each participating root streams its record list down its tree,
// one record per round per edge (pipelined store-and-forward). Every
// non-root participant ends up with the full stream in `received[v]`.
//
// Pipelined mode folds the end marker into the stream's last record, as in
// ConvergeRecords: L sends per edge instead of L+1 for a stream of L >= 1
// records, identical `received` contents.
class BroadcastRecords : public Program {
 public:
  // A default-constructed pass is an empty shell: reset() must run before
  // the simulator does.
  BroadcastRecords() = default;
  explicit BroadcastRecords(TreeView tree);

  // Re-arms the pass for a fresh run, keeping per-node buffer capacity
  // (see ConvergeRecords::reset; `tree.members` makes it O(participants)).
  // `ports` (optional, must outlive the run and match `tree`) skips the
  // per-pass child-port sweep.
  void reset(TreeView tree, const TreePorts* ports = nullptr,
             bool pipelined = false);

  // Caller fills `stream[r]` for each participating root r.
  RecordTable stream;
  RecordTable received;

  void begin(Exec& ex) override;
  void on_wake(Exec& ex, NodeId v, std::span<const Inbound> inbox) override;

 private:
  void pump(Exec& ex, NodeId v);
  void start_root(Exec& ex, NodeId v);
  void queue_push(NodeId v, Record r);
  bool has_children(NodeId v) const {
    return child_offset_view_[v + 1] > child_offset_view_[v];
  }

  TreeView tree_;
  bool pipelined_ = false;
  RecordTable queue_;                   // row cursor = next record to send
  std::vector<std::uint8_t> end_queued_;
  // Child ports per node in CSR layout, cached once in begin(): pump()
  // runs every round of a pipelined stream and must not pay a port_of_edge
  // lookup (nor a per-node allocation) per child per record.
  std::vector<std::uint32_t> child_ports_;
  std::vector<std::uint32_t> child_ports_offset_;  // size n+1
  const TreePorts* ports_ = nullptr;               // shared cache, overrides own
  const std::uint32_t* child_port_view_ = nullptr;    // active views
  const std::uint32_t* child_offset_view_ = nullptr;  // (set in begin)
};

// One-round exchange: `outgoing` lists (port, msg) pairs per node before the
// round; `collect` sees each node's inbox after delivery. `senders` (optional)
// names the nodes that may send — any superset of the actual senders leaves
// the pass's messages unchanged while skipping the `outgoing` callback for
// everyone else; drivers that run many exchanges where few nodes speak
// (relay hops, notification rounds) should pass it.
class Exchange : public Program {
 public:
  using OutgoingFn =
      std::function<void(NodeId, std::vector<std::pair<std::uint32_t, Msg>>&)>;
  using CollectFn = std::function<void(NodeId, std::span<const Inbound>)>;

  Exchange(NodeId num_nodes, OutgoingFn outgoing, CollectFn collect,
           const std::vector<NodeId>* senders = nullptr)
      : num_nodes_(num_nodes),
        outgoing_(std::move(outgoing)),
        collect_(std::move(collect)),
        senders_(senders) {}

  void begin(Exec& ex) override;
  void on_wake(Exec& ex, NodeId v, std::span<const Inbound> inbox) override;

 private:
  NodeId num_nodes_;
  OutgoingFn outgoing_;
  CollectFn collect_;
  const std::vector<NodeId>* senders_;
};

// BFS forest: one wave per part root, restricted to the root's own part
// (receivers discard waves carrying a foreign root id). Produces per-node
// parent edge, children edges and BFS level.
class BfsForest : public Program {
 public:
  // part_root[v] = id of the part root of v's part (part_root[r] == r).
  explicit BfsForest(const std::vector<NodeId>& part_root);

  void begin(Exec& ex) override;
  void on_wake(Exec& ex, NodeId v, std::span<const Inbound> inbox) override;

  std::vector<EdgeId> parent_edge;               // kNoEdge at roots
  std::vector<std::vector<EdgeId>> children;
  std::vector<std::uint32_t> level;

 private:
  const std::vector<NodeId>* part_root_;
  std::vector<std::uint8_t> joined_;
};

}  // namespace cpt::congest
