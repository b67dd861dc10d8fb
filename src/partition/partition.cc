#include "partition/partition.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "partition/forest_decomposition.h"
#include "partition/merge.h"
#include "util/contracts.h"

namespace cpt {

namespace {

std::uint64_t cut_weight(const Graph& g, const PartForest& pf) {
  std::uint64_t cut = 0;
  for (const Endpoints e : g.edges()) {
    if (pf.root[e.u] != pf.root[e.v]) ++cut;
  }
  return cut;
}

// Sub-step 1 of the merging step: each part picks its heaviest BE out-edge
// (ties broken toward the smaller root id, deterministically).
Selection heaviest_out_edge_selection(const Graph& g, const PartForest& pf,
                                      const PeelingResult& peel) {
  Selection sel(g.num_nodes());
  for (const NodeId r : pf.live_roots()) {
    for (const congest::Record& rec : peel.out_records[r]) {
      const NodeId target = static_cast<NodeId>(rec.key);
      const auto w = static_cast<std::uint64_t>(rec.value);
      if (sel.target[r] == kNoNode || w > sel.weight[r] ||
          (w == sel.weight[r] && target < sel.target[r])) {
        sel.target[r] = target;
        sel.weight[r] = w;
      }
    }
  }
  return sel;
}

Stage1Result simulate_stage1(congest::Simulator& sim, const Graph& g,
                             const Stage1Options& opt,
                             congest::RoundLedger& ledger) {
  Stage1Result result;
  result.forest = PartForest::singletons(g.num_nodes());
  result.phases_total = opt.phase_override != 0
                            ? opt.phase_override
                            : stage1_theory_phase_count(opt.epsilon, opt.alpha);

  const std::uint64_t target_cut = static_cast<std::uint64_t>(
      std::floor(opt.epsilon * static_cast<double>(g.num_edges()) / 2.0));

  PeelingOptions peel_opt;
  peel_opt.alpha = opt.alpha;
  peel_opt.pipelined = opt.pipelined_streams;
  // Peeling/merge buffers amortized across phases -- and, when the caller
  // supplies pooled scratch, across runs (then no local is built).
  std::optional<Stage1Scratch> local_scratch;
  Stage1Scratch& scr =
      opt.scratch != nullptr ? *opt.scratch : local_scratch.emplace();
  PeelingResult& peel = scr.peel;
  PeelScratch& peel_scratch = scr.peel_scratch;
  MergeScratch& merge_scratch = scr.merge_scratch;

  for (std::uint32_t phase = 1; phase <= result.phases_total; ++phase) {
    PhaseStats stats;
    stats.cut_before = cut_weight(g, result.forest);
    stats.parts_before = result.forest.num_parts();
    const std::uint64_t rounds_at_start = ledger.total_rounds();

    run_forest_decomposition(sim, g, result.forest, peel_opt, ledger, peel,
                             &peel_scratch);
    if (!peel.still_active_roots.empty()) {
      result.rejected = true;
      result.rejecting_nodes = std::move(peel.still_active_roots);
      result.phases_emulated = phase;
      stats.rounds = ledger.total_rounds() - rounds_at_start;
      result.phase_stats.push_back(stats);
      return result;
    }

    Selection sel = heaviest_out_edge_selection(g, result.forest, peel);
    const MergeStats merge = run_merge_step(sim, g, result.forest,
                                            peel.neighbor_root, std::move(sel),
                                            ledger, &merge_scratch,
                                            opt.pipelined_streams);

    stats.cut_after = cut_weight(g, result.forest);
    stats.parts_after = result.forest.num_parts();
    stats.cv_iterations = merge.cv_iterations;
    stats.marked_tree_height = merge.marked_tree_height;
    stats.rounds = ledger.total_rounds() - rounds_at_start;
    result.phase_stats.push_back(stats);
    result.phases_emulated = phase;

    if (stats.cut_after == 0 && phase < result.phases_total) {
      // All remaining phases are no-ops with identical cost: emulate one
      // frozen phase to measure it, then charge the rest. (Reuses `peel`:
      // its previous contents are no longer needed.)
      const std::uint64_t frozen_start = ledger.total_rounds();
      run_forest_decomposition(sim, g, result.forest, peel_opt, ledger, peel,
                               &peel_scratch);
      CPT_ASSERT(peel.still_active_roots.empty());
      const std::uint64_t frozen_cost = ledger.total_rounds() - frozen_start;
      ++result.phases_emulated;
      const std::uint32_t remaining = result.phases_total - phase - 1;
      if (remaining > 0) {
        ledger.charge("stage1/fast-forward", frozen_cost * remaining);
      }
      break;
    }
    if (opt.adaptive && stats.cut_after <= target_cut) break;
  }
  return result;
}

// Appends a recorded run's passes, charges its rounds and hands back its
// result (or rethrows its budget violation): see Stage1Record.
Stage1Result replay_stage1(congest::Simulator& sim, const Graph& g,
                           const Stage1Record& rec,
                           congest::RoundLedger& ledger) {
  CPT_EXPECTS(rec.captured && "replaying a record no run captured");
  CPT_EXPECTS(rec.budget_exceeded ||
              rec.result.forest.root.size() == g.num_nodes());
  for (const congest::PassStats& p : rec.passes) {
    ledger.add_pass(p.name, p.rounds, p.messages);
  }
  sim.charge_rounds(rec.sim_rounds);
  if (rec.budget_exceeded) throw *rec.budget_exceeded;
  return rec.result;
}

}  // namespace

std::uint32_t stage1_theory_phase_count(double epsilon, std::uint32_t alpha) {
  CPT_EXPECTS(epsilon > 0 && epsilon < 1);
  const double shrink = 1.0 - 1.0 / (12.0 * alpha);
  return static_cast<std::uint32_t>(
             std::ceil(std::log(epsilon / 2.0) / std::log(shrink))) +
         1;
}

Stage1Result run_stage1(congest::Simulator& sim, const Graph& g,
                        const Stage1Options& opt, congest::RoundLedger& ledger) {
  CPT_EXPECTS(opt.record == nullptr || opt.replay == nullptr);
  if (opt.replay != nullptr) return replay_stage1(sim, g, *opt.replay, ledger);
  if (opt.record == nullptr) return simulate_stage1(sim, g, opt, ledger);
  Stage1Record& rec = *opt.record;
  rec = Stage1Record{};
  const std::size_t first_pass = ledger.passes().size();
  const std::uint64_t rounds_at_start = sim.total_rounds();
  const auto capture = [&] {
    rec.passes.assign(ledger.passes().begin() + first_pass,
                      ledger.passes().end());
    rec.sim_rounds = sim.total_rounds() - rounds_at_start;
    rec.captured = true;
  };
  try {
    rec.result = simulate_stage1(sim, g, opt, ledger);
  } catch (const congest::RoundBudgetExceeded& e) {
    capture();
    rec.budget_exceeded = e;
    throw;
  }
  capture();
  return rec.result;
}

}  // namespace cpt
