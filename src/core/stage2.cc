#include "core/stage2.h"

#include <algorithm>
#include <cmath>

#include "congest/primitives.h"
#include "core/labels.h"
#include "core/violation.h"
#include "graph/ops.h"
#include "planar/embedder.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace cpt {

using congest::BfsForest;
using congest::BroadcastRecords;
using congest::Combine;
using congest::ConvergeRecords;
using congest::Exchange;
using congest::Inbound;
using congest::Msg;
using congest::Record;
using congest::TreeView;

namespace {

constexpr std::uint32_t kTagInfo = 50;

// Sampled edge label pairs travel and are re-broadcast as framed word
// streams: [len(lo), lo words..., len(hi), hi words...].
std::vector<std::int64_t> encode_pair(const LabelPair& pair) {
  std::vector<std::int64_t> words;
  words.reserve(pair.lo.size() + pair.hi.size() + 2);
  words.push_back(static_cast<std::int64_t>(pair.lo.size()));
  for (const std::uint32_t w : pair.lo) words.push_back(w);
  words.push_back(static_cast<std::int64_t>(pair.hi.size()));
  for (const std::uint32_t w : pair.hi) words.push_back(w);
  return words;
}

bool decode_pair(const std::vector<std::int64_t>& words, LabelPair& out) {
  std::size_t i = 0;
  const auto read_label = [&](Label& label) {
    if (i >= words.size()) return false;
    const auto len = static_cast<std::size_t>(words[i++]);
    if (i + len > words.size()) return false;
    label.assign(words.begin() + static_cast<std::ptrdiff_t>(i),
                 words.begin() + static_cast<std::ptrdiff_t>(i + len));
    i += len;
    return true;
  };
  Label a;
  Label b;
  if (!read_label(a) || !read_label(b)) return false;
  out = LabelPair::normalized(std::move(a), std::move(b));
  return i == words.size();
}

struct Rejection {
  NodeId node;
  const char* why;
};

}  // namespace

Stage2Result run_stage2(congest::Simulator& sim, const Graph& g,
                        const PartForest& pf, const Stage2Options& opt,
                        congest::RoundLedger& ledger) {
  const NodeId n = g.num_nodes();
  Stage2Result result;
  std::vector<Rejection> rejections;
  std::vector<std::uint8_t> part_failed(n, 0);

  // ---- Preprocessing: per-part BFS trees (Section 2.2.1). ----
  BfsForest bfs(pf.root);
  {
    const auto r = sim.run(bfs);
    ledger.add_pass("stage2/bfs", r.rounds, r.messages);
  }
  for (NodeId v = 0; v < n; ++v) {
    result.stats.max_bfs_depth = std::max(result.stats.max_bfs_depth, bfs.level[v]);
  }

  // ---- Edge classification exchange: (level, id) over every edge. ----
  // Per node: list of (port, edge) of ASSIGNED non-tree edges (assignee =
  // deeper endpoint, ties to the higher id), plus ports of non-tree edges
  // where the far side is the assignee.
  std::vector<std::vector<std::pair<std::uint32_t, EdgeId>>> assigned(n);
  std::vector<std::vector<std::uint32_t>> feed_ports(n);  // we stream to assignee
  {
    std::vector<std::vector<std::uint8_t>> is_tree_port(n);
    for (NodeId v = 0; v < n; ++v) {
      is_tree_port[v].assign(g.degree(v), 0);
      if (bfs.parent_edge[v] != kNoEdge) {
        is_tree_port[v][sim.network().port_of_edge(v, bfs.parent_edge[v])] = 1;
      }
      for (const EdgeId ce : bfs.children[v]) {
        is_tree_port[v][sim.network().port_of_edge(v, ce)] = 1;
      }
    }
    Exchange classify(
        n,
        [&](NodeId v, std::vector<std::pair<std::uint32_t, Msg>>& out) {
          for (std::uint32_t p = 0; p < g.degree(v); ++p) {
            out.push_back({p, Msg::make(kTagInfo,
                                        static_cast<std::int64_t>(pf.root[v]),
                                        bfs.level[v])});
          }
        },
        [&](NodeId v, std::span<const Inbound> inbox) {
          for (const Inbound& in : inbox) {
            if (in.msg.tag != kTagInfo) continue;
            if (static_cast<NodeId>(in.msg.w[0]) != pf.root[v]) continue;
            if (is_tree_port[v][in.port]) continue;
            const NodeId w = sim.network().arc(v, in.port).to;
            const auto w_level = static_cast<std::uint32_t>(in.msg.w[1]);
            const bool i_am_assignee =
                bfs.level[v] != w_level ? bfs.level[v] > w_level : v > w;
            if (i_am_assignee) {
              assigned[v].push_back({in.port, sim.network().arc(v, in.port).edge});
            } else {
              feed_ports[v].push_back(in.port);
            }
          }
        });
    const auto r = sim.run(classify);
    ledger.add_pass("stage2/classify", r.rounds, r.messages);
  }

  // ---- Counting convergecast: n(G_j), m(G_j), mtilde(G_j). ----
  std::vector<std::int64_t> part_n(n, 0);
  std::vector<std::int64_t> part_m(n, 0);
  std::vector<std::int64_t> part_mt(n, 0);
  {
    std::vector<std::uint8_t> all(n, 1);
    ConvergeRecords conv(TreeView{&bfs.parent_edge, &bfs.children, &all},
                         Combine::kSum, 0);
    for (NodeId v = 0; v < n; ++v) {
      const std::int64_t own_edges =
          (bfs.parent_edge[v] != kNoEdge ? 1 : 0) +
          static_cast<std::int64_t>(assigned[v].size());
      conv.initial[v] = {{0, 1},
                         {1, own_edges},
                         {2, static_cast<std::int64_t>(assigned[v].size())}};
    }
    const auto r = sim.run(conv);
    ledger.add_pass("stage2/count", r.rounds, r.messages);
    for (NodeId root = 0; root < n; ++root) {
      if (pf.root[root] != root) continue;
      ++result.stats.parts;
      for (const Record& rec : conv.at_root(root)) {
        if (rec.key == 0) part_n[root] = rec.value;
        if (rec.key == 1) part_m[root] = rec.value;
        if (rec.key == 2) part_mt[root] = rec.value;
      }
      result.stats.total_nontree_edges +=
          static_cast<std::uint64_t>(part_mt[root]);
    }
  }

  // ---- Euler edge-bound check: m > 3n - 6 => root rejects. ----
  std::vector<std::uint8_t> dead(n, 0);  // per root: part dropped out
  for (NodeId root = 0; root < n; ++root) {
    if (pf.root[root] != root) continue;
    if (part_n[root] >= 3 && part_m[root] > 3 * part_n[root] - 6) {
      rejections.push_back({root, "edge bound m > 3n-6"});
      ++result.stats.parts_rejected_edge_bound;
      dead[root] = 1;
    }
  }
  // Dead parts tell their members to sit out the rest (one broadcast).
  std::vector<std::uint8_t> alive_node(n, 1);
  {
    BroadcastRecords bc(TreeView{&bfs.parent_edge, &bfs.children, nullptr});
    bool any_dead = false;
    for (NodeId root = 0; root < n; ++root) {
      if (pf.root[root] == root && dead[root]) {
        bc.stream[root] = {{0, 0}};
        alive_node[root] = 0;
        any_dead = true;
      }
    }
    if (any_dead) {
      const auto r = sim.run(bc);
      ledger.add_pass("stage2/deadcast", r.rounds, r.messages);
      for (NodeId v = 0; v < n; ++v) {
        if (!bc.received[v].empty()) alive_node[v] = 0;
      }
    }
  }

  // ---- Embedding (GH substitute; round cost charged, see DESIGN.md). ----
  // `certified[root]`: the embedding step certified the part planar. The
  // real GH black box succeeds on every planar part, so suppressing
  // Definition-7 rejects on certified parts restores one-sidedness --
  // Claim 10 as stated in the paper fails for BFS trees (see DESIGN.md,
  // "Discrepancy: Claim 10"); detection of far parts is carried entirely by
  // the sampling machinery on uncertified parts, whose guarantee
  // (Corollary 9) is label-agnostic and unaffected.
  std::vector<std::uint8_t> certified(n, 0);
  RotationSystem rotation(n);
  {
    std::vector<std::uint32_t> part_depth(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      part_depth[pf.root[v]] = std::max(part_depth[pf.root[v]], bfs.level[v]);
    }
    std::uint64_t max_gh_rounds = 0;
    for (NodeId root = 0; root < n; ++root) {
      if (pf.root[root] != root || dead[root]) continue;
      const auto& mem = pf.members[root];
      InducedSubgraph sub = induced_subgraph(g, mem);
      EmbeddingResult emb = best_effort_embedding(sub.graph);
      if (emb.planar_certified) {
        certified[root] = 1;
        ++result.stats.parts_certified_planar;
      } else {
        if (opt.eager_reject_embedding) {
          rejections.push_back({root, "embedding failure"});
          ++result.stats.parts_rejected_embedding;
          dead[root] = 1;
          for (const NodeId x : mem) alive_node[x] = 0;
          continue;
        }
      }
      // Translate sub-graph edge ids back to global ones.
      for (NodeId sv = 0; sv < sub.graph.num_nodes(); ++sv) {
        const NodeId v = sub.to_original[sv];
        rotation[v].reserve(emb.rotation[sv].size());
        for (const EdgeId se : emb.rotation[sv]) {
          const Endpoints sep = sub.graph.endpoints(se);
          const EdgeId ge = g.find_edge(sub.to_original[sep.u],
                                        sub.to_original[sep.v]);
          CPT_ASSERT(ge != kNoEdge);
          rotation[v].push_back(ge);
        }
      }
      const std::uint64_t d = part_depth[root];
      const std::uint64_t log_n = static_cast<std::uint64_t>(std::ceil(
          std::log2(std::max<double>(part_n[root], 2))));
      max_gh_rounds = std::max(
          max_gh_rounds, opt.gh_round_constant * d * std::min(log_n, d) + 1);
    }
    ledger.charge("stage2/gh-embedding", max_gh_rounds);
  }

  // ---- Certification broadcast: members learn whether their part's
  // embedding was certified (they skip violation rejects if so). ----
  std::vector<std::uint8_t> node_certified(n, 0);
  {
    BroadcastRecords bc(TreeView{&bfs.parent_edge, &bfs.children, nullptr});
    bool any = false;
    for (NodeId root = 0; root < n; ++root) {
      if (pf.root[root] == root && certified[root]) {
        bc.stream[root] = {{0, 1}};
        node_certified[root] = 1;
        any = true;
      }
    }
    if (any) {
      const auto r = sim.run(bc);
      ledger.add_pass("stage2/certify-bcast", r.rounds, r.messages);
      for (NodeId v = 0; v < n; ++v) {
        if (!bc.received[v].empty()) node_certified[v] = 1;
      }
    }
  }

  // ---- Labels: local child-edge labels + pipelined distribution. ----
  TreeView alive_tree{&bfs.parent_edge, &bfs.children, &alive_node};
  const auto kid_labels =
      child_edge_labels(g, rotation, bfs.parent_edge, bfs.children);
  LabelDistribute dist(alive_tree, kid_labels);
  {
    const auto r = sim.run(dist);
    ledger.add_pass("stage2/labels", r.rounds, r.messages);
    result.stats.max_label_len = dist.max_label_len();
  }
  std::vector<Label> labels(n);
  for (NodeId v = 0; v < n; ++v) labels[v] = dist.label(v);

  // ---- Non-tree label exchange: feed the assignee endpoint. ----
  // other_label[v] aligned with assigned[v].
  std::vector<std::vector<Label>> other_label(n);
  {
    std::vector<std::vector<std::uint32_t>> send_ports(n);
    for (NodeId v = 0; v < n; ++v) {
      if (alive_node[v]) send_ports[v] = feed_ports[v];
    }
    EdgeLabelStream stream(n, labels, send_ports);
    const auto r = sim.run(stream);
    ledger.add_pass("stage2/nontree-exchange", r.rounds, r.messages);
    for (NodeId v = 0; v < n; ++v) {
      other_label[v].resize(assigned[v].size());
      for (const auto& [port, label] : stream.received()[v]) {
        for (std::size_t i = 0; i < assigned[v].size(); ++i) {
          if (assigned[v][i].first == port) {
            other_label[v][i] = label;
            break;
          }
        }
      }
    }
  }

  // ---- Oracle mode: exhaustive centralized check (tests/benches). ----
  if (opt.exhaustive_check) {
    std::vector<std::vector<LabelPair>> per_part(n);
    std::vector<std::vector<NodeId>> pair_owner(n);
    for (NodeId v = 0; v < n; ++v) {
      if (!alive_node[v]) continue;
      for (std::size_t i = 0; i < assigned[v].size(); ++i) {
        per_part[pf.root[v]].push_back(
            LabelPair::normalized(labels[v], other_label[v][i]));
        pair_owner[pf.root[v]].push_back(v);
      }
    }
    for (NodeId root = 0; root < n; ++root) {
      if (pf.root[root] != root || dead[root] || certified[root] ||
          per_part[root].empty()) {
        continue;
      }
      const auto mask = violating_mask(per_part[root]);
      bool any = false;
      for (std::size_t i = 0; i < mask.size(); ++i) {
        if (mask[i]) {
          ++result.stats.exhaustive_violating_edges;
          if (!any) rejections.push_back({pair_owner[root][i], "violating edge"});
          any = true;
        }
      }
      if (any) ++result.stats.parts_rejected_violation;
    }
  } else {
    // ---- Sampling path (the distributed algorithm). ----
    // Roots broadcast mtilde so nodes can set the per-edge coin bias.
    std::vector<std::int64_t> mtilde_at(n, 0);
    {
      BroadcastRecords bc(TreeView{&bfs.parent_edge, &bfs.children, nullptr});
      for (NodeId root = 0; root < n; ++root) {
        if (pf.root[root] == root && !dead[root] && part_mt[root] > 0) {
          bc.stream[root] = {{0, part_mt[root]}};
          mtilde_at[root] = part_mt[root];
        }
      }
      const auto r = sim.run(bc);
      ledger.add_pass("stage2/mtilde", r.rounds, r.messages);
      for (NodeId v = 0; v < n; ++v) {
        if (!bc.received[v].empty()) mtilde_at[v] = bc.received[v][0].value;
      }
    }
    const double s_target = std::ceil(
        opt.sample_constant * std::log(std::max<double>(n, 3)) / opt.epsilon);
    // Nodes flip coins for their assigned non-tree edges.
    Rng base(opt.seed ^ 0x5741d0a2ULL);
    UpStreamWords collect(alive_tree);
    for (NodeId v = 0; v < n; ++v) {
      if (!alive_node[v] || node_certified[v] || assigned[v].empty() ||
          mtilde_at[v] == 0) {
        continue;
      }
      Rng rng = base.fork(v);
      const double p =
          std::min(1.0, s_target / static_cast<double>(mtilde_at[v]));
      for (std::size_t i = 0; i < assigned[v].size(); ++i) {
        if (!rng.next_bernoulli(p)) continue;
        const LabelPair pair =
            LabelPair::normalized(labels[v], other_label[v][i]);
        collect.initial[v].push_back(encode_pair(pair));
      }
    }
    {
      const auto r = sim.run(collect);
      ledger.add_pass("stage2/sample-collect", r.rounds, r.messages);
    }

    // Roots validate the sample volume, cross-check the samples pairwise,
    // and re-broadcast them.
    const std::uint64_t cap = static_cast<std::uint64_t>(4 * s_target) + 8;
    BroadcastRecords sample_bcast(alive_tree);
    std::vector<std::vector<LabelPair>> root_samples(n);
    for (NodeId root = 0; root < n; ++root) {
      if (pf.root[root] != root || dead[root] || certified[root]) continue;
      std::vector<LabelPair>& samples = root_samples[root];
      for (const auto& frame : collect.frames_at_root(root)) {
        LabelPair pair;
        const bool ok = decode_pair(frame, pair);
        CPT_ASSERT(ok);
        samples.push_back(std::move(pair));
      }
      result.stats.sampled_edges += samples.size();
      if (samples.size() > cap) {
        part_failed[root] = 1;
        ++result.stats.parts_failed_sampling;
        continue;
      }
      // Pairwise check among the samples at the root (local computation).
      const auto mask = violating_mask(samples);
      if (std::find(mask.begin(), mask.end(), true) != mask.end()) {
        rejections.push_back({root, "violating edge (sampled pair)"});
        ++result.stats.parts_rejected_violation;
        result.stats.violations_found +=
            static_cast<std::uint64_t>(std::count(mask.begin(), mask.end(), true));
        dead[root] = 1;
        continue;
      }
      // Stream all samples down the tree.
      for (const LabelPair& pair : samples) {
        for (const std::int64_t w : encode_pair(pair)) {
          sample_bcast.stream[root].push_back(
              {0, w});
        }
      }
    }
    {
      const auto r = sim.run(sample_bcast);
      ledger.add_pass("stage2/sample-bcast", r.rounds, r.messages);
    }
    // Every node checks its assigned non-tree edges against the samples.
    for (NodeId v = 0; v < n; ++v) {
      if (!alive_node[v] || node_certified[v] || assigned[v].empty()) continue;
      const NodeId root = pf.root[v];
      if (dead[root] || part_failed[root]) continue;
      // Reassemble the broadcast word stream into label pairs.
      const auto words =
          v == root ? sample_bcast.stream[root] : sample_bcast.received[v];
      std::vector<std::int64_t> flat;
      flat.reserve(words.size());
      for (const Record& rec : words) flat.push_back(rec.value);
      std::vector<LabelPair> samples;
      std::size_t i = 0;
      while (i < flat.size()) {
        const auto len1 = static_cast<std::size_t>(flat[i]);
        CPT_ASSERT(i + len1 + 1 <= flat.size());
        const auto len2 = static_cast<std::size_t>(flat[i + len1 + 1]);
        const std::size_t total = len1 + len2 + 2;
        CPT_ASSERT(i + total <= flat.size());
        LabelPair pair;
        const bool ok = decode_pair(
            std::vector<std::int64_t>(flat.begin() + static_cast<std::ptrdiff_t>(i),
                                      flat.begin() + static_cast<std::ptrdiff_t>(i + total)),
            pair);
        CPT_ASSERT(ok);
        samples.push_back(std::move(pair));
        i += total;
      }
      bool rejected_here = false;
      for (std::size_t a = 0; a < assigned[v].size() && !rejected_here; ++a) {
        const LabelPair mine =
            LabelPair::normalized(labels[v], other_label[v][a]);
        for (const LabelPair& s : samples) {
          if (labels_intersect(mine, s)) {
            rejections.push_back({v, "violating edge (vs sample)"});
            ++result.stats.violations_found;
            rejected_here = true;
            break;
          }
        }
      }
    }
  }

  // ---- Verdict assembly. ----
  for (const Rejection& r : rejections) {
    result.rejecting_nodes.push_back(r.node);
    if (result.reason.empty()) result.reason = r.why;
  }
  if (!result.rejecting_nodes.empty()) {
    result.verdict = Verdict::kReject;
  } else if (std::find(part_failed.begin(), part_failed.end(), 1) !=
             part_failed.end()) {
    result.verdict = Verdict::kFail;
    result.reason = "sampling congestion cap exceeded";
  }
  return result;
}

}  // namespace cpt
