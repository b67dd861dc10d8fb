#include "partition/merge.h"

#include <algorithm>
#include <optional>

#include "util/contracts.h"

namespace cpt {

using congest::BroadcastRecords;
using congest::Combine;
using congest::ConvergeRecords;
using congest::Exchange;
using congest::Inbound;
using congest::Msg;
using congest::Record;
using congest::RecordTable;
using congest::TreeView;

namespace {

constexpr std::uint32_t kTagSignal = 20;  // generic single-record exchange

constexpr std::int64_t kNoColor = -1;
constexpr std::uint32_t kNoLevel = static_cast<std::uint32_t>(-1);
constexpr std::uint32_t kNoPort = static_cast<std::uint32_t>(-1);
constexpr std::uint32_t kNilSlot = RecordTable::kNilSlot;

// All driver-side state for one merge step. Arrays indexed by node id hold
// root-local knowledge at root ids and node-local knowledge everywhere, as
// in the rest of the Stage I emulation. The arrays live in the pooled
// MergeNodeScratch (clean-state invariant: defaults outside a step); the
// destructor resets exactly the touched entries via the step's root /
// charge / serve lists, so repeated merge steps never pay O(n) re-init.
struct MergeCtx {
  congest::Simulator& sim;
  const Graph& g;
  PartForest& pf;
  const std::vector<std::vector<NodeId>>& neighbor_root;
  Selection& sel;
  congest::RoundLedger& ledger;
  bool pipelined;

  NodeId n;
  MergeNodeScratch& ns;
  // Node-side: the single designated port of an in-charge node (or kNoPort).
  std::vector<std::uint32_t>& charge_port;
  // Node-side: ports this node serves for neighboring parts' designated
  // edges, and which of those are marked (belong to T_i).
  std::vector<std::vector<std::uint32_t>>& serve_ports;
  std::vector<std::vector<std::uint32_t>>& marked_serve_ports;
  // Node-side participation masks for converge passes.
  std::vector<std::uint8_t>& sel_mask;    // part has a selection
  std::vector<std::uint8_t>& serve_mask;  // part serves >= 1 designated edge

  // Root-side F_i / T_i state.
  std::vector<std::int64_t>& color;
  std::vector<std::uint8_t>& out_marked;
  std::vector<std::int64_t>& marked_children;  // count of marked in-edges
  std::vector<std::uint32_t>& level;
  std::vector<std::int8_t>& parity_bit;  // -1 unknown, else 0/1

  // Pooled passes and tables (living in the cross-phase MergeScratch),
  // reset() per use so the dozens of relay passes in one merge step reuse
  // one contiguous record pool each instead of re-allocating per-node
  // vectors. Two broadcast pools because find_designated_edges keeps two
  // broadcasts' state alive at once; the sender lists let relay hops skip
  // silent nodes.
  BroadcastRecords& bc_pool;
  BroadcastRecords& bc_pool2;
  ConvergeRecords& conv_pool;
  congest::TreePorts& tree_ports;  // built once: forest fixed until contraction
  RecordTable& at_pool;
  std::vector<std::uint8_t>& all_mask;
  std::vector<NodeId>& charge_nodes;
  std::vector<NodeId>& serving_nodes;
  RecordTable& values_a;
  RecordTable& values_b;
  RecordTable& out_a;
  RecordTable& out_b;
  // Per-node relay-hop send slot. Invariant: kNilSlot outside a RelayHop
  // pass (every started sender drains its row), so only started senders
  // are touched per pass.
  std::vector<std::uint32_t>& hop_cursor;
  // Participant-list scratch (see stream_members / mask_members).
  std::vector<NodeId>& bc_members;
  std::vector<NodeId>& sel_members;
  std::vector<NodeId>& serve_members;
  std::vector<NodeId>& stream_roots;

  MergeCtx(congest::Simulator& sim_, const Graph& g_, PartForest& pf_,
           const std::vector<std::vector<NodeId>>& nr, Selection& sel_,
           congest::RoundLedger& ledger_, MergeScratch& scratch,
           bool pipelined_)
      : sim(sim_),
        g(g_),
        pf(pf_),
        neighbor_root(nr),
        sel(sel_),
        ledger(ledger_),
        pipelined(pipelined_),
        n(g_.num_nodes()),
        ns(scratch.nodes),
        charge_port(ns.charge_port),
        serve_ports(ns.serve_ports),
        marked_serve_ports(ns.marked_serve_ports),
        sel_mask(ns.sel_mask),
        serve_mask(ns.serve_mask),
        color(ns.color),
        out_marked(ns.out_marked),
        marked_children(ns.marked_children),
        level(ns.level),
        parity_bit(ns.parity_bit),
        bc_pool(scratch.bc_a),
        bc_pool2(scratch.bc_b),
        conv_pool(scratch.conv),
        tree_ports(scratch.tree_ports),
        at_pool(scratch.at),
        all_mask(scratch.all_mask),
        charge_nodes(scratch.charge_nodes),
        serving_nodes(scratch.serving_nodes),
        values_a(scratch.values_a),
        values_b(scratch.values_b),
        out_a(scratch.out_a),
        out_b(scratch.out_b),
        hop_cursor(scratch.hop_cursor),
        bc_members(scratch.bc_members),
        sel_members(scratch.sel_members),
        serve_members(scratch.serve_members),
        stream_roots(scratch.stream_roots) {
    if (all_mask.size() != n) all_mask.assign(n, 1);
    if (hop_cursor.size() != n) hop_cursor.assign(n, kNilSlot);
    // First use (or a graph of a different size): one O(n) sizing pass
    // establishes the clean-state defaults; every later step inherits them
    // from the previous step's destructor reset.
    if (ns.color.size() != n) {
      ns.charge_port.assign(n, kNoPort);
      ns.serve_ports.assign(n, {});
      ns.marked_serve_ports.assign(n, {});
      ns.sel_mask.assign(n, 0);
      ns.serve_mask.assign(n, 0);
      ns.color.assign(n, kNoColor);
      ns.out_marked.assign(n, 0);
      ns.marked_children.assign(n, 0);
      ns.level.assign(n, kNoLevel);
      ns.parity_bit.assign(n, -1);
      ns.mark_in_all.assign(n, 0);
      ns.mark_in_color2.assign(n, 0);
      ns.acc_w0.assign(n, 0);
      ns.acc_w1.assign(n, 0);
      ns.acc_cnt.assign(n, 0);
      ns.reported.assign(n, 0);
      ns.ready.assign(n, 0);
      ns.old_color.assign(n, kNoColor);
    }
    // Contractions only retire roots, so the roots live now cover every
    // root-indexed write of this step -- the destructor's reset list.
    ns.step_roots = pf.live_roots();
    ns.ready_roots.clear();
    tree_ports.build(sim.network(), pf.parent_edge, pf.children);
  }

  // Watermark-style reset (see MergeNodeScratch): restore the clean-state
  // defaults for exactly the entries this step touched.
  ~MergeCtx() {
    for (const NodeId r : ns.step_roots) {
      color[r] = kNoColor;
      out_marked[r] = 0;
      marked_children[r] = 0;
      level[r] = kNoLevel;
      parity_bit[r] = -1;
      ns.mark_in_all[r] = 0;
      ns.mark_in_color2[r] = 0;
      ns.acc_w0[r] = 0;
      ns.acc_w1[r] = 0;
      ns.acc_cnt[r] = 0;
      ns.reported[r] = 0;
      ns.ready[r] = 0;
    }
    for (const NodeId v : charge_nodes) charge_port[v] = kNoPort;
    for (const NodeId v : serving_nodes) {
      serve_ports[v].clear();  // keeps capacity
      marked_serve_ports[v].clear();
    }
    for (const NodeId v : sel_members) sel_mask[v] = 0;
    for (const NodeId v : serve_members) serve_mask[v] = 0;
  }

  RecordTable& claim_at_pool() {
    at_pool.reset(n);
    return at_pool;
  }

  const std::vector<NodeId>& roots() const { return pf.live_roots(); }

  bool has_sel(NodeId r) const { return sel.target[r] != kNoNode; }

  TreeView tree(const std::vector<std::uint8_t>* mask,
                const std::vector<NodeId>* members = nullptr) const {
    return TreeView{&pf.parent_edge, &pf.children, mask, &pf.live_roots(),
                    members};
  }

  // Participant list for a broadcast whose streams are the non-empty rows
  // of `values`: every node of every streaming part (broadcast messages
  // never leave the part tree). Rebuilds the shared scratch -- the
  // returned pointer is only read by the next reset()/begin(), so one
  // scratch serves every pass in the step.
  const std::vector<NodeId>* stream_members(const RecordTable& values) {
    bc_members.clear();
    for (const NodeId r : values.touched_rows()) {
      if (values[r].empty()) continue;
      const auto& mem = pf.members[r];
      bc_members.insert(bc_members.end(), mem.begin(), mem.end());
    }
    return &bc_members;
  }

  // Participant list matching a root mask: members of every part whose
  // root passes `pred`. O(participants); fills `out` and returns it.
  template <typename Pred>
  const std::vector<NodeId>* mask_members(std::vector<NodeId>& out,
                                          Pred pred) const {
    out.clear();
    for (const NodeId r : roots()) {
      if (!pred(r)) continue;
      const auto& mem = pf.members[r];
      out.insert(out.end(), mem.begin(), mem.end());
    }
    return &out;
  }

  void relay_down(const RecordTable& values, bool marked_only,
                  const char* passname, RecordTable& out);
  void relay_up(const RecordTable& values, bool marked_only,
                const std::vector<std::uint8_t>* senders, const char* passname,
                RecordTable& out);
};

// Streams every relay node's full record row across the designated edges it
// serves (or its own designated edge, going up), one record per round per
// edge. Replaces the one-Exchange-per-record hop loops: the same messages
// cross the same edges in the same rounds, but the host runs one simulator
// pass instead of max-stream-length passes.
class RelayHop : public congest::Program {
 public:
  enum class Dir { kDown, kUp };

  RelayHop(MergeCtx& ctx, Dir dir, bool marked_only, const RecordTable& source,
           RecordTable& sink)
      : ctx_(ctx),
        dir_(dir),
        marked_only_(marked_only),
        source_(source),
        sink_(sink) {}

  void begin(congest::Exec& ex) override {
    const auto& senders =
        dir_ == Dir::kDown ? ctx_.serving_nodes : ctx_.charge_nodes;
    for (const NodeId v : senders) {
      if (dir_ == Dir::kDown && serve_set(v).empty()) continue;
      ctx_.hop_cursor[v] = source_.head_slot(v);
      pump(ex, v);
    }
  }

  void on_wake(congest::Exec& ex, NodeId v,
               std::span<const Inbound> inbox) override {
    for (const Inbound& in : inbox) {
      if (in.msg.tag != kTagSignal) continue;
      const Record rec{static_cast<std::uint64_t>(in.msg.w[0]), in.msg.w[1]};
      if (dir_ == Dir::kDown) {
        if (in.port == ctx_.charge_port[v]) sink_.push(v, rec, ex.shard());
      } else {
        const auto& ports = serve_set(v);
        if (std::find(ports.begin(), ports.end(), in.port) != ports.end()) {
          sink_.push(v, rec, ex.shard());
        }
      }
    }
    pump(ex, v);
  }

 private:
  const std::vector<std::uint32_t>& serve_set(NodeId v) const {
    return marked_only_ ? ctx_.marked_serve_ports[v] : ctx_.serve_ports[v];
  }

  void pump(congest::Exec& ex, NodeId v) {
    const std::uint32_t slot = ctx_.hop_cursor[v];
    if (slot == kNilSlot) return;
    const Record& rec = source_.at_slot(slot);
    const Msg msg = Msg::make(kTagSignal, static_cast<std::int64_t>(rec.key),
                              rec.value);
    if (dir_ == Dir::kDown) {
      for (const std::uint32_t p : serve_set(v)) ex.send(v, p, msg);
    } else {
      ex.send(v, ctx_.charge_port[v], msg);
    }
    const std::uint32_t next = source_.next_slot(slot);
    ctx_.hop_cursor[v] = next;
    if (next != kNilSlot) ex.wake_next_round(v);
  }

  MergeCtx& ctx_;
  Dir dir_;
  bool marked_only_;
  const RecordTable& source_;
  RecordTable& sink_;
};

// --- Composite relay passes ------------------------------------------------

// F_i-parent -> F_i-children: every part root with a value broadcasts it
// down its own tree; serving nodes forward their stream over the designated
// edges they serve (optionally only marked ones); the receiving in-charge
// nodes converge the records up their trees. Fills `out` (cleared here;
// must not alias `values`) with per-root received records (merged by key,
// summed).
void MergeCtx::relay_down(const RecordTable& values, bool marked_only,
                          const char* passname, RecordTable& out) {
  out.reset(n);
  bc_pool.reset(tree(nullptr, stream_members(values)), &tree_ports, pipelined);
  BroadcastRecords& bc = bc_pool;
  bool any = false;
  for (const NodeId r : values.touched_rows()) {
    if (!values[r].empty()) {
      bc.stream[r] = values[r];
      any = true;
    }
  }
  if (!any) return;
  auto rb = sim.run(bc);
  ledger.add_pass(std::string(passname) + "/bcast", rb.rounds, rb.messages);
  for (const NodeId r : values.touched_rows()) {
    if (!values[r].empty()) bc.received[r] = values[r];
  }
  // Serving nodes push the stream across designated edges, one record per
  // round per edge (a single multi-record hop pass).
  RecordTable& at_charge = claim_at_pool();
  RelayHop hop(*this, RelayHop::Dir::kDown, marked_only, bc.received,
               at_charge);
  auto re = sim.run(hop);
  ledger.add_pass(std::string(passname) + "/hop", re.rounds, re.messages);
  // Converge up the receiving (selection-holding) parts.
  conv_pool.reset(tree(&sel_mask, &sel_members), Combine::kSum, 0, &tree_ports,
                  pipelined);
  ConvergeRecords& conv = conv_pool;
  for (const NodeId v : at_charge.touched_rows()) {
    if (sel_mask[v] && !at_charge[v].empty()) conv.initial[v] = at_charge[v];
  }
  auto rc = sim.run(conv);
  ledger.add_pass(std::string(passname) + "/conv", rc.rounds, rc.messages);
  for (const NodeId r : roots()) {
    if (has_sel(r) && !conv.at_root(r).empty()) out[r] = conv.at_root(r);
  }
}

// F_i-children -> F_i-parent: sending parts broadcast their records down
// to their in-charge node, which pushes them over the designated edge;
// the parent part converges the arriving records up its tree, summing by
// key. `senders` (optional) restricts which selection-holding parts send.
// Fills `out` (cleared here; must not alias `values`).
void MergeCtx::relay_up(const RecordTable& values, bool marked_only,
                        const std::vector<std::uint8_t>* senders,
                        const char* passname, RecordTable& out) {
  out.reset(n);
  // Streaming parts: selection-holding rows of `values` passing the
  // sender/marked filters. The filter runs once; the collected roots feed
  // both the participant list and (after the reset) the streams, so the
  // two can never disagree.
  stream_roots.clear();
  bc_members.clear();
  for (const NodeId r : values.touched_rows()) {
    if (!has_sel(r) || values[r].empty()) continue;
    if (senders != nullptr && !(*senders)[r]) continue;
    if (marked_only && !out_marked[r]) continue;
    stream_roots.push_back(r);
    const auto& mem = pf.members[r];
    bc_members.insert(bc_members.end(), mem.begin(), mem.end());
  }
  bc_pool.reset(tree(nullptr, &bc_members), &tree_ports, pipelined);
  BroadcastRecords& bc = bc_pool;
  for (const NodeId r : stream_roots) bc.stream[r] = values[r];
  if (stream_roots.empty()) return;
  auto rb = sim.run(bc);
  ledger.add_pass(std::string(passname) + "/bcast", rb.rounds, rb.messages);
  for (const NodeId r : bc.stream.touched_rows()) {
    if (!bc.stream[r].empty()) bc.received[r] = bc.stream[r];
  }
  RecordTable& at_serve = claim_at_pool();
  RelayHop hop(*this, RelayHop::Dir::kUp, marked_only, bc.received, at_serve);
  auto re = sim.run(hop);
  ledger.add_pass(std::string(passname) + "/hop", re.rounds, re.messages);
  conv_pool.reset(tree(&serve_mask, &serve_members), Combine::kSum, 0,
                  &tree_ports, pipelined);
  ConvergeRecords& conv = conv_pool;
  for (const NodeId v : at_serve.touched_rows()) {
    if (serve_mask[v] && !at_serve[v].empty()) conv.initial[v] = at_serve[v];
  }
  auto rc = sim.run(conv);
  ledger.add_pass(std::string(passname) + "/conv", rc.rounds, rc.messages);
  for (const NodeId r : roots()) {
    if (!conv.at_root(r).empty()) out[r] = conv.at_root(r);
  }
}

// ---- Sub-step 1 (emulation): designated physical edges -------------------

void find_designated_edges(MergeCtx& ctx) {
  const NodeId n = ctx.n;
  // Dedup: if A and B selected each other's auxiliary edge, it becomes the
  // out-edge of the smaller root id (Section 4's pseudo-forest rule; cannot
  // trigger in the BE-oriented flow).
  for (const NodeId r : ctx.roots()) {
    if (!ctx.has_sel(r)) continue;
    const NodeId t = ctx.sel.target[r];
    if (t < r && ctx.sel.target[t] == r) ctx.sel.target[r] = kNoNode;
  }
  // sel_mask is clean (all zero) on entry; set the members of selection
  // parts only -- O(participants), and the destructor's reset list.
  ctx.mask_members(ctx.sel_members, [&](NodeId r) { return ctx.has_sel(r); });
  for (const NodeId v : ctx.sel_members) ctx.sel_mask[v] = 1;

  // SEEK passes for parts without a known physical edge.
  const auto seeks = [&](NodeId r) {
    return ctx.has_sel(r) && ctx.sel.charge_node[r] == kNoNode;
  };
  bool any_seek = false;
  for (const NodeId r : ctx.roots()) {
    if (seeks(r)) any_seek = true;
  }
  ctx.mask_members(ctx.bc_members, seeks);
  ctx.bc_pool.reset(ctx.tree(nullptr, &ctx.bc_members), &ctx.tree_ports,
                    ctx.pipelined);
  BroadcastRecords& bc = ctx.bc_pool;
  for (const NodeId r : ctx.roots()) {
    if (seeks(r)) {
      bc.stream[r] = {{0, static_cast<std::int64_t>(ctx.sel.target[r])}};
    }
  }
  if (any_seek) {
    auto rb = ctx.sim.run(bc);
    ctx.ledger.add_pass("stage1/seek/bcast", rb.rounds, rb.messages);
    for (const NodeId r : bc.stream.touched_rows()) {
      if (!bc.stream[r].empty()) bc.received[r] = bc.stream[r];
    }
    // Boundary nodes with an edge to the target nominate themselves (min id).
    ctx.conv_pool.reset(ctx.tree(&ctx.sel_mask, &ctx.sel_members),
                        Combine::kMin, 0, &ctx.tree_ports, ctx.pipelined);
    ConvergeRecords& conv = ctx.conv_pool;
    for (NodeId v = 0; v < n; ++v) {
      if (!ctx.sel_mask[v] || bc.received[v].empty()) continue;
      const NodeId target = static_cast<NodeId>(bc.received[v][0].value);
      for (std::uint32_t p = 0; p < ctx.g.degree(v); ++p) {
        if (ctx.neighbor_root[v][p] == target) {
          conv.initial[v] = {{0, static_cast<std::int64_t>(v)}};
          break;
        }
      }
    }
    auto rc = ctx.sim.run(conv);
    ctx.ledger.add_pass("stage1/seek/conv", rc.rounds, rc.messages);
    // Notify the chosen in-charge node down the tree. (Second pool:
    // bc.stream is still being read below. bc_members still holds the
    // seek parts' members -- the same parts stream here.)
    ctx.bc_pool2.reset(ctx.tree(nullptr, &ctx.bc_members), &ctx.tree_ports,
                       ctx.pipelined);
    BroadcastRecords& bc2 = ctx.bc_pool2;
    for (const NodeId r : ctx.roots()) {
      if (bc.stream[r].empty()) continue;
      const auto recs = conv.at_root(r);
      CPT_ASSERT(!recs.empty() && "selection target must be a real neighbor");
      ctx.sel.charge_node[r] = static_cast<NodeId>(recs[0].value);
      bc2.stream[r] = {{1, recs[0].value}};
    }
    auto rb2 = ctx.sim.run(bc2);
    ctx.ledger.add_pass("stage1/seek/notify", rb2.rounds, rb2.messages);
  }

  // In-charge nodes resolve their designated port (and edge id). A node
  // belongs to exactly one part, so each in-charge node appears for one
  // root only -- the collected list is duplicate-free; sorting restores
  // the ascending order the retired O(n) sweep produced.
  ctx.charge_nodes.clear();
  for (const NodeId r : ctx.roots()) {
    if (!ctx.has_sel(r)) continue;
    const NodeId u = ctx.sel.charge_node[r];
    CPT_ASSERT(u != kNoNode);
    if (ctx.sel.charge_edge[r] != kNoEdge) {
      ctx.charge_port[u] =
          ctx.sim.network().port_of_edge(u, ctx.sel.charge_edge[r]);
    } else {
      const NodeId target = ctx.sel.target[r];
      for (std::uint32_t p = 0; p < ctx.g.degree(u); ++p) {
        if (ctx.neighbor_root[u][p] == target) {
          ctx.charge_port[u] = p;
          ctx.sel.charge_edge[r] = ctx.sim.network().arc(u, p).edge;
          break;
        }
      }
      CPT_ASSERT(ctx.sel.charge_edge[r] != kNoEdge);
    }
    ctx.charge_nodes.push_back(u);
  }
  std::sort(ctx.charge_nodes.begin(), ctx.charge_nodes.end());

  // SERVE notifications: in-charge nodes tell the far endpoint (one round).
  Exchange serve(
      n,
      [&](NodeId v, std::vector<std::pair<std::uint32_t, Msg>>& out) {
        if (ctx.charge_port[v] != kNoPort) {
          out.push_back({ctx.charge_port[v], Msg::make(kTagSignal, 1)});
        }
      },
      [&](congest::Exec&, NodeId v, std::span<const Inbound> inbox) {
        for (const Inbound& in : inbox) {
          if (in.msg.tag == kTagSignal) ctx.serve_ports[v].push_back(in.port);
        }
      },
      &ctx.charge_nodes);
  auto rs = ctx.sim.run(serve);
  ctx.ledger.add_pass("stage1/seek/serve", rs.rounds, rs.messages);
  // Serving nodes are exactly the far endpoints of the designated edges; a
  // node serving several edges appears once (sort + unique restores the
  // ascending order of the retired O(n) sweep).
  ctx.serving_nodes.clear();
  for (const NodeId u : ctx.charge_nodes) {
    ctx.serving_nodes.push_back(
        ctx.sim.network().arc(u, ctx.charge_port[u]).to);
  }
  std::sort(ctx.serving_nodes.begin(), ctx.serving_nodes.end());
  ctx.serving_nodes.erase(
      std::unique(ctx.serving_nodes.begin(), ctx.serving_nodes.end()),
      ctx.serving_nodes.end());

  // Serve mask: parts with at least one serving node learn it via one
  // converge + one broadcast.
  ctx.conv_pool.reset(ctx.tree(&ctx.all_mask), Combine::kSum, 0,
                      &ctx.tree_ports, ctx.pipelined);
  ConvergeRecords& conv = ctx.conv_pool;
  for (const NodeId v : ctx.serving_nodes) {
    conv.initial[v] = {
        {0, static_cast<std::int64_t>(ctx.serve_ports[v].size())}};
  }
  auto rc = ctx.sim.run(conv);
  ctx.ledger.add_pass("stage1/seek/servemask-conv", rc.rounds, rc.messages);
  for (const NodeId r : ctx.roots()) {
    if (!conv.at_root(r).empty()) ctx.serve_mask[r] = 1;
  }
  ctx.mask_members(ctx.serve_members,
                   [&](NodeId r) { return ctx.serve_mask[r] != 0; });
  ctx.bc_pool.reset(ctx.tree(nullptr, &ctx.serve_members), &ctx.tree_ports,
                    ctx.pipelined);
  BroadcastRecords& bc3 = ctx.bc_pool;
  for (const NodeId r : ctx.roots()) {
    if (ctx.serve_mask[r]) bc3.stream[r] = {{0, 1}};
  }
  auto rb3 = ctx.sim.run(bc3);
  ctx.ledger.add_pass("stage1/seek/servemask-bcast", rb3.rounds, rb3.messages);
  for (const NodeId v : bc3.received.touched_rows()) {
    if (!bc3.received[v].empty()) ctx.serve_mask[v] = 1;
  }
}

// ---- Sub-step 2a: Cole-Vishkin 3-coloring of F_i -------------------------

std::uint32_t color_pseudo_forest(MergeCtx& ctx) {
  for (const NodeId r : ctx.roots()) ctx.color[r] = r;
  std::uint32_t iterations = 0;
  while (true) {
    std::int64_t max_color = 0;
    for (const NodeId r : ctx.roots()) {
      max_color = std::max(max_color, ctx.color[r]);
    }
    if (max_color <= 5) break;
    auto& values = ctx.values_a;
    values.reset(ctx.n);
    for (const NodeId r : ctx.roots()) {
      // Only parts that serve a designated edge have F_i children that need
      // their color.
      if (ctx.serve_mask[r]) values[r] = {{0, ctx.color[r]}};
    }
    auto& parent_color = ctx.out_a;
    ctx.relay_down(values, /*marked_only=*/false, "stage1/cv", parent_color);
    for (const NodeId r : ctx.roots()) {
      const std::int64_t c = ctx.color[r];
      if (!ctx.has_sel(r)) {
        ctx.color[r] = c & 1;  // F_i root keeps bit 0
        continue;
      }
      CPT_ASSERT(!parent_color[r].empty());
      const std::int64_t pc = parent_color[r][0].value;
      CPT_ASSERT(pc != c);
      int i = 0;
      while (((c >> i) & 1) == ((pc >> i) & 1)) ++i;
      ctx.color[r] = 2 * i + ((c >> i) & 1);
    }
    ++iterations;
    CPT_ASSERT(iterations < 64);
  }
  // Reduce 6 -> 3 colors: shift-down, then recolor one class at a time.
  // (old_color is pooled write-before-read scratch: only root entries
  // written this wave are read back.)
  auto& old_color = ctx.ns.old_color;
  for (std::int64_t target = 5; target >= 3; --target) {
    auto& values = ctx.values_a;
    values.reset(ctx.n);
    for (const NodeId r : ctx.roots()) {
      if (ctx.serve_mask[r]) values[r] = {{0, ctx.color[r]}};
    }
    auto& pre = ctx.out_a;
    ctx.relay_down(values, false, "stage1/cv-shift", pre);
    for (const NodeId r : ctx.roots()) old_color[r] = ctx.color[r];
    for (const NodeId r : ctx.roots()) {
      if (ctx.has_sel(r)) {
        CPT_ASSERT(!pre[r].empty());
        ctx.color[r] = pre[r][0].value;
      } else {
        ctx.color[r] = (ctx.color[r] + 1) % 3;
      }
    }
    auto& values2 = ctx.values_b;
    values2.reset(ctx.n);
    for (const NodeId r : ctx.roots()) {
      if (ctx.serve_mask[r]) values2[r] = {{0, ctx.color[r]}};
    }
    auto& post = ctx.out_b;
    ctx.relay_down(values2, false, "stage1/cv-recolor", post);
    for (const NodeId r : ctx.roots()) {
      if (ctx.color[r] != target) continue;
      const std::int64_t forbid1 =
          ctx.has_sel(r) && !post[r].empty() ? post[r][0].value : -1;
      const std::int64_t forbid2 = old_color[r];  // children's current color
      for (std::int64_t c = 0; c < 3; ++c) {
        if (c != forbid1 && c != forbid2) {
          ctx.color[r] = c;
          break;
        }
      }
    }
  }
  return iterations;
}

// ---- Sub-step 2b: marking -------------------------------------------------

void mark_edges(MergeCtx& ctx) {
  const NodeId n = ctx.n;
  // Each selection-holding part learns its target's color.
  auto& values = ctx.values_a;
  values.reset(n);
  for (const NodeId r : ctx.roots()) {
    if (ctx.serve_mask[r]) values[r] = {{0, ctx.color[r]}};
  }
  auto& target_color = ctx.out_a;
  ctx.relay_down(values, false, "stage1/mark-tcolor", target_color);

  // Each part tells its F_i parent (color, weight) of its selected edge;
  // the parent receives per-color weight sums.
  auto& up_values = ctx.values_b;
  up_values.reset(n);
  for (const NodeId r : ctx.roots()) {
    if (ctx.has_sel(r)) {
      up_values[r] = {{static_cast<std::uint64_t>(ctx.color[r]),
                       static_cast<std::int64_t>(ctx.sel.weight[r])}};
    }
  }
  auto& in_by_color = ctx.out_b;
  ctx.relay_up(up_values, false, nullptr, "stage1/mark-insum", in_by_color);

  // Marking decisions (colors 0/1/2 stand for the paper's 1/2/3). Pooled,
  // clean on entry, reset by the destructor's step_roots list.
  auto& mark_in_all = ctx.ns.mark_in_all;
  auto& mark_in_color2 = ctx.ns.mark_in_color2;
  for (const NodeId r : ctx.roots()) {
    std::int64_t sum_all = 0;
    std::int64_t sum_c2 = 0;
    for (const Record& rec : in_by_color[r]) {
      sum_all += rec.value;
      if (rec.key == 2) sum_c2 += rec.value;
    }
    if (ctx.color[r] == 0) {
      if (ctx.has_sel(r) &&
          static_cast<std::int64_t>(ctx.sel.weight[r]) >= sum_all) {
        ctx.out_marked[r] = 1;
      } else {
        mark_in_all[r] = 1;
      }
    } else if (ctx.color[r] == 1) {
      const bool target_is_2 =
          ctx.has_sel(r) && !target_color[r].empty() &&
          target_color[r][0].value == 2;
      if (target_is_2 &&
          static_cast<std::int64_t>(ctx.sel.weight[r]) >= sum_c2) {
        ctx.out_marked[r] = 1;
      } else {
        mark_in_color2[r] = 1;
      }
    }
  }

  // Parent-side marks flow down to children: (1, -1) marks all incoming,
  // (2, c) marks incoming edges from children colored c. (target_color and
  // in_by_color are dead by now, so their tables can be recycled.)
  auto& mark_values = ctx.values_a;
  mark_values.reset(n);
  for (const NodeId r : ctx.roots()) {
    if (mark_in_all[r]) mark_values[r] = {{1, -1}};
    if (mark_in_color2[r]) mark_values[r] = {{2, 2}};
  }
  auto& parent_marks = ctx.out_a;
  ctx.relay_down(mark_values, false, "stage1/mark-down", parent_marks);
  for (const NodeId r : ctx.roots()) {
    if (!ctx.has_sel(r)) continue;
    for (const Record& rec : parent_marks[r]) {
      if (rec.key == 1 || (rec.key == 2 && ctx.color[r] == rec.value)) {
        ctx.out_marked[r] = 1;
      }
    }
  }

  // In-charge nodes of marked out-edges notify the serving endpoint, so the
  // T_i relays know which designated edges are marked (one round). The part
  // root tells its in-charge node via one broadcast first.
  ctx.mask_members(ctx.bc_members,
                   [&](NodeId r) { return ctx.out_marked[r] != 0; });
  ctx.bc_pool.reset(ctx.tree(nullptr, &ctx.bc_members), &ctx.tree_ports,
                    ctx.pipelined);
  BroadcastRecords& bc = ctx.bc_pool;
  for (const NodeId r : ctx.roots()) {
    if (ctx.out_marked[r]) bc.stream[r] = {{0, 1}};
  }
  auto rb = ctx.sim.run(bc);
  ctx.ledger.add_pass("stage1/mark-notify/bcast", rb.rounds, rb.messages);
  for (const NodeId r : bc.stream.touched_rows()) {
    if (!bc.stream[r].empty()) bc.received[r] = bc.stream[r];
  }
  Exchange ex(
      n,
      [&](NodeId v, std::vector<std::pair<std::uint32_t, Msg>>& out) {
        if (ctx.charge_port[v] != kNoPort && !bc.received[v].empty() &&
            ctx.out_marked[ctx.pf.root[v]]) {
          out.push_back({ctx.charge_port[v], Msg::make(kTagSignal, 1)});
        }
      },
      [&](congest::Exec&, NodeId v, std::span<const Inbound> inbox) {
        for (const Inbound& in : inbox) {
          if (in.msg.tag == kTagSignal) {
            ctx.marked_serve_ports[v].push_back(in.port);
          }
        }
      },
      &ctx.charge_nodes);
  auto re = ctx.sim.run(ex);
  ctx.ledger.add_pass("stage1/mark-notify/hop", re.rounds, re.messages);

  // Count marked children per part (relay over marked edges only).
  auto& ones = ctx.values_b;
  ones.reset(n);
  for (const NodeId r : ctx.roots()) {
    if (ctx.out_marked[r]) ones[r] = {{0, 1}};
  }
  auto& counts = ctx.out_b;
  ctx.relay_up(ones, /*marked_only=*/true, nullptr, "stage1/mark-count",
               counts);
  for (const NodeId r : ctx.roots()) {
    for (const Record& rec : counts[r]) ctx.marked_children[r] += rec.value;
  }
}

// ---- Sub-steps 3+4: levels, parity sums, decision, contraction -----------

struct TPhaseResult {
  std::uint32_t height = 0;
  std::uint64_t contracted_weight = 0;
  NodeId merges = 0;
  std::uint32_t max_flip = 0;
};

TPhaseResult run_t_phase(MergeCtx& ctx) {
  const NodeId n = ctx.n;
  TPhaseResult out;

  // T roots: marked incoming edges but no marked out-edge.
  bool any_in_t = false;
  for (const NodeId r : ctx.roots()) {
    if (ctx.marked_children[r] > 0 && !ctx.out_marked[r]) {
      ctx.level[r] = 0;
      any_in_t = true;
    }
    if (ctx.out_marked[r]) any_in_t = true;
  }
  if (!any_in_t) return out;

  // Levels: iterate relay_down over marked edges until fixpoint.
  for (std::uint32_t guard = 0;; ++guard) {
    CPT_ASSERT(guard < 200 && "marked graph must be a forest (Claim 15)");
    auto& values = ctx.values_a;
    values.reset(n);
    for (const NodeId r : ctx.roots()) {
      if (ctx.serve_mask[r] && ctx.level[r] != kNoLevel) {
        values[r] = {{0, ctx.level[r]}};
      }
    }
    auto& down = ctx.out_a;
    ctx.relay_down(values, /*marked_only=*/true, "stage1/t-level", down);
    bool changed = false;
    for (const NodeId r : ctx.roots()) {
      if (!ctx.out_marked[r] || ctx.level[r] != kNoLevel) continue;
      if (!down[r].empty()) {
        ctx.level[r] = static_cast<std::uint32_t>(down[r][0].value) + 1;
        out.height = std::max(out.height, ctx.level[r]);
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Parity-weight convergecast up T: a part reports (w0, w1) of its subtree
  // once all its marked children reported. Keys: 0 = even-edge weight,
  // 1 = odd-edge weight, 2 = reporter count. All accumulators are pooled
  // (clean on entry, reset by the destructor's step_roots list); the
  // per-wave `ready` mask clears via the ready_roots touch list instead of
  // an O(n) assign per wave.
  auto& acc_w0 = ctx.ns.acc_w0;
  auto& acc_w1 = ctx.ns.acc_w1;
  auto& acc_cnt = ctx.ns.acc_cnt;
  auto& reported = ctx.ns.reported;
  auto& ready = ctx.ns.ready;
  for (std::uint32_t guard = 0;; ++guard) {
    CPT_ASSERT(guard < 200);
    for (const NodeId r : ctx.ns.ready_roots) ready[r] = 0;
    ctx.ns.ready_roots.clear();
    auto& values = ctx.values_a;
    values.reset(n);
    bool any_ready = false;
    for (const NodeId r : ctx.roots()) {
      if (reported[r] || !ctx.out_marked[r]) continue;
      if (ctx.level[r] == kNoLevel) continue;
      if (acc_cnt[r] != ctx.marked_children[r]) continue;
      // Subtree sums plus this part's own connecting (marked out-)edge:
      // the edge's parity is this part's level parity (even level => even
      // edge, contributing to w0).
      std::int64_t w0 = acc_w0[r];
      std::int64_t w1 = acc_w1[r];
      if (ctx.level[r] % 2 == 0) {
        w0 += static_cast<std::int64_t>(ctx.sel.weight[r]);
      } else {
        w1 += static_cast<std::int64_t>(ctx.sel.weight[r]);
      }
      values[r] = {{0, w0}, {1, w1}, {2, 1}};
      ready[r] = 1;
      ctx.ns.ready_roots.push_back(r);
      reported[r] = 1;
      any_ready = true;
    }
    if (!any_ready) break;
    auto& up = ctx.out_a;
    ctx.relay_up(values, /*marked_only=*/true, &ready, "stage1/t-wsum", up);
    for (const NodeId r : ctx.roots()) {
      for (const Record& rec : up[r]) {
        if (rec.key == 0) acc_w0[r] += rec.value;
        if (rec.key == 1) acc_w1[r] += rec.value;
        if (rec.key == 2) acc_cnt[r] += rec.value;
      }
    }
  }

  // T roots decide the parity to contract.
  for (const NodeId r : ctx.roots()) {
    if (ctx.level[r] == 0 && acc_cnt[r] == ctx.marked_children[r]) {
      ctx.parity_bit[r] = acc_w0[r] >= acc_w1[r] ? 0 : 1;
    }
  }
  // Decision flows down T.
  for (std::uint32_t guard = 0;; ++guard) {
    CPT_ASSERT(guard < 200);
    auto& values = ctx.values_a;
    values.reset(n);
    for (const NodeId r : ctx.roots()) {
      if (ctx.serve_mask[r] && ctx.parity_bit[r] >= 0) {
        values[r] = {{0, ctx.parity_bit[r]}};
      }
    }
    auto& down = ctx.out_a;
    ctx.relay_down(values, /*marked_only=*/true, "stage1/t-bit", down);
    bool changed = false;
    for (const NodeId r : ctx.roots()) {
      if (!ctx.out_marked[r] || ctx.parity_bit[r] >= 0) continue;
      if (!down[r].empty()) {
        ctx.parity_bit[r] = static_cast<std::int8_t>(down[r][0].value);
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Contract: a part at level l with a marked out-edge contracts it iff
  // l % 2 == bit (bit 0 = even edges, from even levels up to odd ones).
  std::vector<NodeId> merging;
  for (const NodeId r : ctx.roots()) {
    if (!ctx.out_marked[r]) continue;
    if (ctx.level[r] == kNoLevel || ctx.parity_bit[r] < 0) continue;
    if (ctx.level[r] % 2 == static_cast<std::uint32_t>(ctx.parity_bit[r])) {
      merging.push_back(r);
    }
  }
  for (const NodeId r : merging) {
    const NodeId u = ctx.sel.charge_node[r];
    const EdgeId e = ctx.sel.charge_edge[r];
    const NodeId v = ctx.g.other_endpoint(e, u);
    CPT_ASSERT(ctx.pf.root[u] == r);
    CPT_ASSERT(ctx.pf.root[v] != r);
    const std::uint32_t flip = ctx.pf.merge_into(ctx.g, u, e, v);
    out.max_flip = std::max(out.max_flip, flip);
    out.contracted_weight += ctx.sel.weight[r];
    ++out.merges;
  }
  if (!merging.empty()) {
    // New-root announcements and the path flip travel the old part trees.
    ctx.ledger.charge("stage1/contract", 2ULL * out.max_flip + 2);
    ctx.pf.recompute_depths(ctx.g);
  }
  return out;
}

}  // namespace

MergeStats run_merge_step(congest::Simulator& sim, const Graph& g,
                          PartForest& pf,
                          const std::vector<std::vector<NodeId>>& neighbor_root,
                          Selection sel, congest::RoundLedger& ledger,
                          MergeScratch* scratch, bool pipelined) {
  MergeStats stats;
  bool any_selection = false;
  for (const NodeId r : pf.live_roots()) {
    if (sel.target[r] != kNoNode) {
      any_selection = true;
      break;
    }
  }
  if (!any_selection) return stats;

  std::optional<MergeScratch> local_scratch;  // built only when not pooled
  MergeCtx ctx(sim, g, pf, neighbor_root, sel, ledger,
               scratch != nullptr ? *scratch : local_scratch.emplace(),
               pipelined);
  find_designated_edges(ctx);
  stats.cv_iterations = color_pseudo_forest(ctx);
  mark_edges(ctx);
  const TPhaseResult t = run_t_phase(ctx);
  stats.merges = t.merges;
  stats.marked_tree_height = t.height;
  stats.contracted_weight = t.contracted_weight;
  return stats;
}

}  // namespace cpt
