#include "apps/bipartite.h"

#include "congest/network.h"
#include "congest/simulator.h"

namespace cpt {

AppResult test_bipartiteness(const Graph& g, const MinorFreeOptions& opt) {
  AppResult result;
  congest::Network net(g);
  congest::SimOptions sim_opt;
  sim_opt.max_rounds = opt.max_rounds;
  sim_opt.memory = opt.sim_memory;
  sim_opt.trace = opt.trace;
  congest::Simulator sim(net, sim_opt);
  result.ledger.set_trace(opt.trace);

  const MinorFreePartition part = minor_free_partition(sim, g, opt, result.ledger);
  result.partition = measure_partition(g, part.forest);
  if (part.rejected) {
    // The promise was violated; report reject (no bipartiteness witness,
    // but the algorithm cannot continue meaningfully).
    result.verdict = Verdict::kReject;
    result.rejecting_nodes = part.rejecting_nodes;
    return result;
  }
  const BfsClassification cls = classify_edges(sim, g, part.forest, result.ledger);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& nt : cls.assigned[v]) {
      if ((cls.bfs.level[v] & 1U) == (nt.nbr_level & 1U)) {
        // Equal parity endpoints: the tree paths + this edge close an odd
        // cycle.
        result.rejecting_nodes.push_back(v);
        break;
      }
    }
  }
  if (!result.rejecting_nodes.empty()) result.verdict = Verdict::kReject;
  return result;
}

}  // namespace cpt
