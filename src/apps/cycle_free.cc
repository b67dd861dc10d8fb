#include "apps/cycle_free.h"

#include "congest/network.h"
#include "congest/simulator.h"

namespace cpt {

AppResult test_cycle_freeness(const Graph& g, const MinorFreeOptions& opt) {
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
    // Arboricity evidence is in particular a cycle witness.
    result.verdict = Verdict::kReject;
    result.rejecting_nodes = part.rejecting_nodes;
    return result;
  }
  const BfsClassification cls = classify_edges(sim, g, part.forest, result.ledger);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!cls.assigned[v].empty()) {
      // Any same-part non-tree edge closes a cycle.
      result.rejecting_nodes.push_back(v);
    }
  }
  if (!result.rejecting_nodes.empty()) result.verdict = Verdict::kReject;
  return result;
}

}  // namespace cpt
