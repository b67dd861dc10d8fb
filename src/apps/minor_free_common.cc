#include "apps/minor_free_common.h"

#include "partition/partition.h"
#include "partition/random_partition.h"
#include "util/contracts.h"

namespace cpt {

using congest::Exchange;
using congest::Inbound;
using congest::Msg;

namespace {
constexpr std::uint32_t kTagInfo = 70;
}

MinorFreePartition minor_free_partition(congest::Simulator& sim, const Graph& g,
                                        const MinorFreeOptions& opt,
                                        congest::RoundLedger& ledger) {
  MinorFreePartition out;
  if (opt.randomized) {
    CPT_EXPECTS(opt.stage1_record == nullptr && opt.stage1_replay == nullptr);
    RandomPartitionOptions rp;
    rp.epsilon = opt.epsilon;
    rp.delta = opt.delta;
    rp.alpha = opt.alpha;
    rp.seed = opt.seed;
    rp.adaptive = opt.adaptive_phases;
    rp.scratch = opt.scratch;
    out.forest = run_random_partition(sim, g, rp, ledger).forest;
  } else {
    Stage1Options s1;
    s1.epsilon = opt.epsilon;
    s1.alpha = opt.alpha;
    s1.adaptive = opt.adaptive_phases;
    s1.pipelined_streams = opt.pipelined_streams;
    s1.scratch = opt.scratch;
    s1.record = opt.stage1_record;
    s1.replay = opt.stage1_replay;
    Stage1Result r = run_stage1(sim, g, s1, ledger);
    out.rejected = r.rejected;
    out.rejecting_nodes = std::move(r.rejecting_nodes);
    out.forest = std::move(r.forest);
  }
  return out;
}

BfsClassification classify_edges(congest::Simulator& sim, const Graph& g,
                                 const PartForest& pf,
                                 congest::RoundLedger& ledger) {
  const NodeId n = g.num_nodes();
  BfsClassification out(pf.root);
  {
    const auto r = sim.run(out.bfs);
    ledger.add_pass("app/bfs", r.rounds, r.messages);
  }
  out.assigned.resize(n);
  std::vector<std::vector<std::uint8_t>> is_tree_port(n);
  for (NodeId v = 0; v < n; ++v) {
    is_tree_port[v].assign(g.degree(v), 0);
    if (out.bfs.parent_edge[v] != kNoEdge) {
      is_tree_port[v][sim.network().port_of_edge(v, out.bfs.parent_edge[v])] = 1;
    }
    for (const EdgeId ce : out.bfs.children[v]) {
      is_tree_port[v][sim.network().port_of_edge(v, ce)] = 1;
    }
  }
  Exchange classify(
      n,
      [&](NodeId v, std::vector<std::pair<std::uint32_t, Msg>>& outv) {
        for (std::uint32_t p = 0; p < g.degree(v); ++p) {
          outv.push_back({p, Msg::make(kTagInfo,
                                       static_cast<std::int64_t>(pf.root[v]),
                                       out.bfs.level[v])});
        }
      },
      [&](congest::Exec&, NodeId v, std::span<const Inbound> inbox) {
        for (const Inbound& in : inbox) {
          if (in.msg.tag != kTagInfo) continue;
          if (static_cast<NodeId>(in.msg.w[0]) != pf.root[v]) continue;
          if (is_tree_port[v][in.port]) continue;
          const NodeId w = sim.network().arc(v, in.port).to;
          const auto w_level = static_cast<std::uint32_t>(in.msg.w[1]);
          const bool i_am_assignee =
              out.bfs.level[v] != w_level ? out.bfs.level[v] > w_level : v > w;
          if (i_am_assignee) {
            out.assigned[v].push_back(
                {in.port, sim.network().arc(v, in.port).edge, w_level});
          }
        }
      });
  const auto r = sim.run(classify);
  ledger.add_pass("app/classify", r.rounds, r.messages);
  return out;
}

}  // namespace cpt
