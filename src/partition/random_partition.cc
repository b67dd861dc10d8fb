#include "partition/random_partition.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "congest/primitives.h"
#include "partition/merge.h"
#include "util/contracts.h"

namespace cpt {

using congest::BroadcastRecords;
using congest::Combine;
using congest::ConvergeRecords;
using congest::Exchange;
using congest::Inbound;
using congest::Msg;
using congest::Record;
using congest::TreeView;

namespace {

constexpr std::uint32_t kTagRoot = 30;
constexpr std::uint32_t kTagPick = 31;

// Uniform-random-incident-edge convergecast (paper Section 4.1): each node
// draws a uniform edge among its own boundary edges; going up the tree, a
// node keeps each subtree candidate with probability proportional to its
// boundary-edge count (weighted reservoir), so the root ends up with a
// uniform edge among all edges incident to the part. Exactly one message
// per tree edge.
class UniformEdgePick : public congest::Program {
 public:
  struct Candidate {
    NodeId node = kNoNode;       // boundary endpoint inside the part
    std::uint32_t port = 0;      // its port toward the outside
    NodeId target = kNoNode;     // the neighboring part's root
    std::int64_t count = 0;      // boundary edges in the subtree
  };

  UniformEdgePick(TreeView tree, const std::vector<std::vector<NodeId>>& nbr_root,
                  const std::vector<NodeId>& part_root, Rng& rng,
                  std::uint64_t salt)
      : tree_(tree), nbr_root_(&nbr_root), part_root_(&part_root) {
    const std::size_t n = part_root.size();
    state_.resize(n);
    pending_.assign(n, 0);
    rng_.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      rng_.push_back(rng.fork((static_cast<std::uint64_t>(v) << 20) ^ salt));
    }
  }

  void begin(congest::Exec& ex) override {
    const NodeId n = static_cast<NodeId>(part_root_->size());
    for (NodeId v = 0; v < n; ++v) {
      if (!tree_.in(v)) continue;
      init_own(v);
      pending_[v] = static_cast<std::uint32_t>((*tree_.children)[v].size());
      if (pending_[v] == 0) emit(ex, v);
    }
  }

  void on_wake(congest::Exec& ex, NodeId v,
               std::span<const Inbound> inbox) override {
    for (const Inbound& in : inbox) {
      if (in.msg.tag != kTagPick) continue;
      Candidate child;
      child.node = static_cast<NodeId>(in.msg.w[0] >> 20);
      child.port = static_cast<std::uint32_t>(in.msg.w[0] & 0xfffff);
      child.target = static_cast<NodeId>(in.msg.w[2]);
      child.count = in.msg.w[1];
      merge(v, child);
      CPT_ASSERT(pending_[v] > 0);
      if (--pending_[v] == 0) emit(ex, v);
    }
  }

  const Candidate& at_root(NodeId root) const { return state_[root]; }

 private:
  void init_own(NodeId v) {
    // Uniform pick among v's own boundary ports.
    std::int64_t count = 0;
    const auto& roots = (*nbr_root_)[v];
    for (std::uint32_t p = 0; p < roots.size(); ++p) {
      if (roots[p] != kNoNode && roots[p] != (*part_root_)[v]) {
        ++count;
        if (rng_[v].next_below(static_cast<std::uint64_t>(count)) == 0) {
          state_[v].node = v;
          state_[v].port = p;
          state_[v].target = roots[p];
        }
      }
    }
    state_[v].count = count;
  }

  void merge(NodeId v, const Candidate& child) {
    if (child.count == 0) return;
    state_[v].count += child.count;
    if (static_cast<std::int64_t>(rng_[v].next_below(
            static_cast<std::uint64_t>(state_[v].count))) < child.count) {
      state_[v].node = child.node;
      state_[v].port = child.port;
      state_[v].target = child.target;
    }
  }

  void emit(congest::Exec& ex, NodeId v) {
    const EdgeId pe = (*tree_.parent_edge)[v];
    if (pe == kNoEdge) return;  // root keeps the result
    const Candidate& c = state_[v];
    const std::int64_t packed =
        c.node == kNoNode
            ? -1
            : static_cast<std::int64_t>((static_cast<std::uint64_t>(c.node) << 20) |
                                        c.port);
    ex.send(v, ex.network().port_of_edge(v, pe),
             Msg::make(kTagPick, packed, c.count,
                       static_cast<std::int64_t>(c.target)));
  }

  TreeView tree_;
  const std::vector<std::vector<NodeId>>* nbr_root_;
  const std::vector<NodeId>* part_root_;
  std::vector<Candidate> state_;
  std::vector<std::uint32_t> pending_;
  std::vector<Rng> rng_;
};

std::uint64_t cut_weight(const Graph& g, const PartForest& pf) {
  std::uint64_t cut = 0;
  for (const Endpoints e : g.edges()) {
    if (pf.root[e.u] != pf.root[e.v]) ++cut;
  }
  return cut;
}

}  // namespace

std::uint32_t random_partition_theory_phase_count(double epsilon,
                                                  std::uint32_t alpha) {
  CPT_EXPECTS(epsilon > 0 && epsilon < 1);
  const double shrink = 1.0 - 1.0 / (64.0 * alpha);
  return static_cast<std::uint32_t>(
             std::ceil(std::log(epsilon / 2.0) / std::log(shrink))) +
         1;
}

RandomPartitionResult run_random_partition(congest::Simulator& sim,
                                           const Graph& g,
                                           const RandomPartitionOptions& opt,
                                           congest::RoundLedger& ledger) {
  const NodeId n = g.num_nodes();
  RandomPartitionResult result;
  result.forest = PartForest::singletons(n);
  result.phases_total =
      opt.phase_override != 0
          ? opt.phase_override
          : random_partition_theory_phase_count(opt.epsilon, opt.alpha);
  // Lemma 13: each trial independently fails with prob <= 1/(16*alpha - 1);
  // s trials drive the failure below delta (plus one for slack).
  result.trials_per_phase =
      opt.trials_override != 0
          ? opt.trials_override
          : static_cast<std::uint32_t>(
                std::ceil(std::log(1.0 / opt.delta) /
                          std::log(16.0 * opt.alpha - 1.0))) +
                1;

  Rng rng(opt.seed);
  const std::uint64_t target_cut = static_cast<std::uint64_t>(
      std::floor(opt.epsilon * static_cast<double>(g.num_edges()) / 2.0));

  std::vector<std::vector<NodeId>> neighbor_root(n);
  for (NodeId v = 0; v < n; ++v) neighbor_root[v].assign(g.degree(v), kNoNode);
  // Relay buffers amortized across phases (and across runs when pooled).
  std::optional<MergeScratch> local_merge_scratch;  // only when not pooled
  MergeScratch& merge_scratch = opt.scratch != nullptr
                                    ? opt.scratch->merge_scratch
                                    : local_merge_scratch.emplace();

  for (std::uint32_t phase = 1; phase <= result.phases_total; ++phase) {
    PartForest& pf = result.forest;
    PhaseStats stats;
    stats.cut_before = cut_weight(g, pf);
    stats.parts_before = pf.num_parts();
    const std::uint64_t rounds_at_start = ledger.total_rounds();

    // Refresh per-port neighbor roots (paper 4.1: "each node sends a message
    // to all its neighbors with the id of the root of its part").
    Exchange refresh(
        n,
        [&](NodeId v, std::vector<std::pair<std::uint32_t, Msg>>& out) {
          for (std::uint32_t p = 0; p < g.degree(v); ++p) {
            out.push_back(
                {p, Msg::make(kTagRoot, static_cast<std::int64_t>(pf.root[v]))});
          }
        },
        [&](NodeId v, std::span<const Inbound> inbox) {
          for (const Inbound& in : inbox) {
            if (in.msg.tag == kTagRoot) {
              neighbor_root[v][in.port] = static_cast<NodeId>(in.msg.w[0]);
            }
          }
        });
    auto rr = sim.run(refresh);
    ledger.add_pass("rand/refresh", std::max<std::uint64_t>(rr.rounds, 1),
                    rr.messages);

    // s weighted draws: each is a uniform boundary-edge pick.
    std::vector<UniformEdgePick::Candidate> best(n);
    std::vector<std::vector<UniformEdgePick::Candidate>> drawn(n);
    for (std::uint32_t trial = 0; trial < result.trials_per_phase; ++trial) {
      UniformEdgePick pick(TreeView{&pf.parent_edge, &pf.children, nullptr},
                           neighbor_root, pf.root, rng,
                           (static_cast<std::uint64_t>(phase) << 8) | trial);
      auto rp = sim.run(pick);
      ledger.add_pass("rand/pick", rp.rounds, rp.messages);
      for (const NodeId r : pf.live_roots()) {
        if (pick.at_root(r).node != kNoNode) {
          drawn[r].push_back(pick.at_root(r));
        }
      }
    }

    // Learn the weights of the drawn targets: broadcast the candidate target
    // roots, converge per-target boundary-edge counts, keep the heaviest.
    BroadcastRecords bc(
        TreeView{&pf.parent_edge, &pf.children, nullptr, &pf.live_roots()});
    for (const NodeId r : pf.live_roots()) {
      for (const auto& c : drawn[r]) {
        bc.stream[r].push_back({static_cast<std::uint64_t>(c.target), 0});
      }
    }
    auto rb = sim.run(bc);
    ledger.add_pass("rand/weights-bcast", rb.rounds, rb.messages);
    for (const NodeId r : pf.live_roots()) {
      if (!bc.stream[r].empty()) bc.received[r] = bc.stream[r];
    }
    std::vector<std::uint8_t> all(n, 1);
    ConvergeRecords conv(TreeView{&pf.parent_edge, &pf.children, &all},
                         Combine::kSum, 0);
    for (const NodeId v : bc.received.touched_rows()) {
      // touched_rows may repeat a row (a cleared-and-refilled row is
      // listed once per fill); initial[v] is filled only here, so a
      // non-empty row marks v as already processed.
      if (!conv.initial[v].empty()) continue;
      for (const Record& want : bc.received[v]) {
        std::int64_t count = 0;
        for (std::uint32_t p = 0; p < g.degree(v); ++p) {
          if (neighbor_root[v][p] == static_cast<NodeId>(want.key)) ++count;
        }
        if (count > 0) conv.initial[v].push_back({want.key, count});
      }
    }
    auto rc = sim.run(conv);
    ledger.add_pass("rand/weights-conv", rc.rounds, rc.messages);

    Selection sel(n);
    for (const NodeId r : pf.live_roots()) {
      if (drawn[r].empty()) continue;
      for (const auto& c : drawn[r]) {
        std::uint64_t w = 0;
        for (const Record& rec : conv.at_root(r)) {
          if (rec.key == c.target) {
            w = static_cast<std::uint64_t>(rec.value);
            break;
          }
        }
        CPT_ASSERT(w > 0);
        if (sel.target[r] == kNoNode || w > sel.weight[r] ||
            (w == sel.weight[r] && c.target < sel.target[r])) {
          sel.target[r] = c.target;
          sel.weight[r] = w;
          sel.charge_node[r] = c.node;
          sel.charge_edge[r] = sim.network().arc(c.node, c.port).edge;
        }
      }
    }

    const MergeStats merge = run_merge_step(sim, g, pf, neighbor_root,
                                            std::move(sel), ledger,
                                            &merge_scratch);

    stats.cut_after = cut_weight(g, pf);
    stats.parts_after = pf.num_parts();
    stats.cv_iterations = merge.cv_iterations;
    stats.marked_tree_height = merge.marked_tree_height;
    stats.rounds = ledger.total_rounds() - rounds_at_start;
    result.phase_stats.push_back(stats);
    result.phases_emulated = phase;

    if (stats.cut_after == 0 && phase < result.phases_total) {
      // Frozen phases repeat with identical cost (refresh + s silent picks);
      // emulate one and charge the rest.
      const std::uint64_t frozen_start = ledger.total_rounds();
      auto rr2 = sim.run(refresh);
      ledger.add_pass("rand/refresh", std::max<std::uint64_t>(rr2.rounds, 1),
                      rr2.messages);
      for (std::uint32_t trial = 0; trial < result.trials_per_phase; ++trial) {
        UniformEdgePick pick(TreeView{&pf.parent_edge, &pf.children, nullptr},
                             neighbor_root, pf.root, rng, trial);
        auto rp = sim.run(pick);
        ledger.add_pass("rand/pick", rp.rounds, rp.messages);
      }
      const std::uint64_t frozen_cost = ledger.total_rounds() - frozen_start;
      ++result.phases_emulated;
      const std::uint32_t remaining = result.phases_total - phase - 1;
      if (remaining > 0) {
        ledger.charge("rand/fast-forward", frozen_cost * remaining);
      }
      break;
    }
    if (opt.adaptive && stats.cut_after <= target_cut) break;
  }
  return result;
}

}  // namespace cpt
