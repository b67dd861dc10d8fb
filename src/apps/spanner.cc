#include "apps/spanner.h"

#include <algorithm>
#include <queue>

#include "congest/network.h"
#include "congest/simulator.h"
#include "util/contracts.h"

namespace cpt {

using congest::Exchange;
using congest::Inbound;
using congest::Msg;

namespace {
constexpr std::uint32_t kTagRoot = 80;
}

SpannerResult build_spanner(const Graph& g, const MinorFreeOptions& opt) {
  SpannerResult result;
  congest::Network net(g);
  congest::Simulator sim(net);

  const MinorFreePartition part = minor_free_partition(sim, g, opt, result.ledger);
  CPT_ASSERT(!part.rejected && "spanner construction assumes the promise");
  result.partition = measure_partition(g, part.forest);

  const BfsClassification cls = classify_edges(sim, g, part.forest, result.ledger);

  // Cut edges: each node learns per-port neighbor roots in one round and
  // keeps its cut ports (per-node lists -- both endpoints of a cut edge
  // record it, the edge marking below deduplicates).
  std::vector<std::uint8_t> in_spanner(g.num_edges(), 0);
  std::vector<std::vector<std::uint32_t>> cut_ports(g.num_nodes());
  Exchange cut(
      g.num_nodes(),
      [&](NodeId v, std::vector<std::pair<std::uint32_t, Msg>>& out) {
        for (std::uint32_t p = 0; p < g.degree(v); ++p) {
          out.push_back({p, Msg::make(kTagRoot,
                                      static_cast<std::int64_t>(
                                          part.forest.root[v]))});
        }
      },
      [&](NodeId v, std::span<const Inbound> inbox) {
        for (const Inbound& in : inbox) {
          if (in.msg.tag != kTagRoot) continue;
          if (static_cast<NodeId>(in.msg.w[0]) != part.forest.root[v]) {
            cut_ports[v].push_back(in.port);
          }
        }
      });
  const auto r = sim.run(cut);
  result.ledger.add_pass("spanner/cut", r.rounds, r.messages);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const std::uint32_t p : cut_ports[v]) {
      in_spanner[sim.network().arc(v, p).edge] = 1;
    }
  }

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (cls.bfs.parent_edge[v] != kNoEdge) {
      in_spanner[cls.bfs.parent_edge[v]] = 1;
      ++result.tree_edges;
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (in_spanner[e]) result.edges.push_back(e);
  }
  result.cut_edges = result.edges.size() - result.tree_edges;
  return result;
}

std::uint32_t measure_edge_stretch(const Graph& g,
                                   const std::vector<EdgeId>& spanner_edges,
                                   std::uint32_t samples, Rng& rng) {
  if (g.num_edges() == 0) return 1;
  // Spanner adjacency.
  std::vector<std::vector<NodeId>> adj(g.num_nodes());
  std::vector<std::uint8_t> in_spanner(g.num_edges(), 0);
  for (const EdgeId e : spanner_edges) {
    const Endpoints ep = g.endpoints(e);
    adj[ep.u].push_back(ep.v);
    adj[ep.v].push_back(ep.u);
    in_spanner[e] = 1;
  }
  // Sample non-spanner edges (spanner edges have stretch 1).
  std::vector<EdgeId> candidates;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!in_spanner[e]) candidates.push_back(e);
  }
  if (candidates.size() > samples) {
    for (std::size_t i = 0; i < samples; ++i) {
      std::swap(candidates[i],
                candidates[i + rng.next_below(candidates.size() - i)]);
    }
    candidates.resize(samples);
  }
  std::uint32_t worst = 1;
  std::vector<std::uint32_t> dist(g.num_nodes());
  for (const EdgeId e : candidates) {
    const Endpoints ep = g.endpoints(e);
    // BFS in the spanner from ep.u until ep.v found.
    std::fill(dist.begin(), dist.end(), static_cast<std::uint32_t>(-1));
    std::queue<NodeId> frontier;
    dist[ep.u] = 0;
    frontier.push(ep.u);
    while (!frontier.empty() && dist[ep.v] == static_cast<std::uint32_t>(-1)) {
      const NodeId v = frontier.front();
      frontier.pop();
      for (const NodeId w : adj[v]) {
        if (dist[w] == static_cast<std::uint32_t>(-1)) {
          dist[w] = dist[v] + 1;
          frontier.push(w);
        }
      }
    }
    CPT_ASSERT(dist[ep.v] != static_cast<std::uint32_t>(-1) &&
               "spanner must preserve connectivity");
    worst = std::max(worst, dist[ep.v]);
  }
  return worst;
}

}  // namespace cpt
