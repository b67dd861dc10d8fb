// Stage I driver: the deterministic partitioning algorithm (Theorem 3, and
// Stage I of the planarity tester, Theorem 1). Runs t = Theta(log 1/eps)
// phases of forest-decomposition peeling + CHW merging. If the peeling ever
// leaves an active node, that node's part root rejects (arboricity > 3*alpha
// evidence) and the partition aborts.
#pragma once

#include <optional>
#include <vector>

#include "congest/metrics.h"
#include "congest/simulator.h"
#include "partition/forest_decomposition.h"
#include "partition/merge.h"
#include "partition/part_forest.h"

namespace cpt {

// Pooled cross-run Stage I scratch: the reusable peeling result plus the
// peel/merge relay buffers. Already amortized across phases within one
// run; handing the same object to successive runs (the batch engine keeps
// one per worker context) also amortizes it across jobs. Default state is
// valid for any graph -- every table is resized and reset per call by the
// peeling/merge passes.
struct Stage1Scratch {
  PeelingResult peel;
  PeelScratch peel_scratch;
  MergeScratch merge_scratch;
};

struct Stage1Record;  // below

struct Stage1Options {
  double epsilon = 0.1;              // edge-cut parameter
  std::uint32_t alpha = 3;           // arboricity bound (3 for planar)
  std::uint32_t phase_override = 0;  // 0 = theory value (Claim 3)
  // Stop phases once the cut target (eps*m/2) is reached. Uses global
  // knowledge for loop control; off by default (the paper runs all phases).
  bool adaptive = false;
  // Pipelined converge/broadcast/relay streams throughout Stage I: strictly
  // fewer rounds and messages, identical partitions. Off reproduces the
  // unpipelined schedule; the differential tests cross-check the two.
  bool pipelined_streams = true;
  // Optional pooled scratch reused across runs (see Stage1Scratch).
  // nullptr = per-run locals; results are identical either way.
  Stage1Scratch* scratch = nullptr;
  // Replayable runs (see Stage1Record). `record` captures this run into
  // the pointee; `replay` skips the simulation and replays a record that
  // a run on the same graph, with the same options above and the same
  // simulator round budget, captured. At most one of the two may be set.
  Stage1Record* record = nullptr;
  const Stage1Record* replay = nullptr;
};

struct PhaseStats {
  std::uint64_t cut_before = 0;
  std::uint64_t cut_after = 0;
  NodeId parts_before = 0;
  NodeId parts_after = 0;
  std::uint32_t cv_iterations = 0;
  std::uint32_t marked_tree_height = 0;
  std::uint64_t rounds = 0;
};

struct Stage1Result {
  PartForest forest;
  bool rejected = false;
  std::vector<NodeId> rejecting_nodes;  // part roots with arboricity evidence
  std::uint32_t phases_emulated = 0;    // phases actually simulated
  std::uint32_t phases_total = 0;       // including fast-forwarded ones
  std::vector<PhaseStats> phase_stats;
};

// One finished Stage I run, replayable into another simulator. Stage I
// reads no random bits, so a run is a pure function of the graph, the
// Stage1Options above and the simulator's round budget: every run with
// those inputs returns the same result, appends the same ledger passes and
// simulates the same number of rounds. Replaying hands back `result`,
// appends `passes` to the ledger (so totals and per-pass trace spans match
// a simulated run) and charges `sim_rounds` to the simulator (so a round
// budget trips at the same round afterwards). The batch engine simulates
// Stage I once per share key and replays it into the key's other jobs
// (DESIGN.md section 6).
struct Stage1Record {
  bool captured = false;  // a run finished (or exhausted its budget) here
  Stage1Result result;
  std::vector<congest::PassStats> passes;  // in ledger order
  std::uint64_t sim_rounds = 0;            // Simulator::total_rounds consumed
  // Set when the run exhausted SimOptions::max_rounds: replay appends the
  // passes finished before the throw, then rethrows.
  std::optional<congest::RoundBudgetExceeded> budget_exceeded;
};

// Number of phases guaranteeing residual cut <= eps*m/2 when no reject
// occurs (Claims 1 and 3): (1 - 1/(12*alpha))^t <= eps/2.
std::uint32_t stage1_theory_phase_count(double epsilon, std::uint32_t alpha);

Stage1Result run_stage1(congest::Simulator& sim, const Graph& g,
                        const Stage1Options& opt, congest::RoundLedger& ledger);

}  // namespace cpt
