#include "core/tester.h"

#include "congest/network.h"
#include "congest/simulator.h"

namespace cpt {

TesterResult test_planarity(const Graph& g, const TesterOptions& opt) {
  TesterResult result;
  congest::Network net(g);
  congest::SimOptions sim_opt;
  sim_opt.max_rounds = opt.max_rounds;
  sim_opt.memory = opt.sim_memory;
  sim_opt.trace = opt.trace;
  congest::Simulator sim(net, sim_opt);
  result.ledger.set_trace(opt.trace);

  Stage1Options s1 = opt.stage1;
  s1.epsilon = opt.epsilon;
  const Stage1Result stage1 = run_stage1(sim, g, s1, result.ledger);
  result.stage1_phases_emulated = stage1.phases_emulated;
  result.stage1_phases_total = stage1.phases_total;
  if (stage1.rejected) {
    result.stage1_rejected = true;
    result.verdict = Verdict::kReject;
    result.rejecting_nodes = stage1.rejecting_nodes;
    result.reason = "stage I: arboricity evidence (active node after peeling)";
    result.partition = measure_partition(g, stage1.forest);
    return result;
  }
  result.partition = measure_partition(g, stage1.forest);

  Stage2Options s2 = opt.stage2;
  s2.epsilon = opt.epsilon;
  s2.seed = opt.seed;
  const Stage2Result stage2 = run_stage2(sim, g, stage1.forest, s2, result.ledger);
  result.verdict = stage2.verdict;
  result.rejecting_nodes = stage2.rejecting_nodes;
  result.reason = stage2.reason.empty() ? result.reason : "stage II: " + stage2.reason;
  result.stage2 = stage2.stats;
  return result;
}

}  // namespace cpt
