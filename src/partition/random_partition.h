// The randomized partitioning algorithm for minor-free graphs (Theorem 4):
// skips the arboricity-verification peeling entirely and replaces the
// heaviest-out-edge selection with a weighted random edge draw, repeated
// s = Theta(log 1/delta) times per phase (Lemma 13), keeping the heaviest
// drawn edge. Round complexity O(poly(1/eps)(log(1/delta) + log* n)),
// independent of log n.
#pragma once

#include <vector>

#include "congest/metrics.h"
#include "congest/simulator.h"
#include "partition/part_forest.h"
#include "partition/partition.h"
#include "util/rng.h"

namespace cpt {

struct RandomPartitionOptions {
  double epsilon = 0.1;   // edge-cut parameter
  double delta = 0.1;     // failure probability
  std::uint32_t alpha = 3;  // arboricity bound of the promised class
  bool adaptive = false;  // stop phases early when cut target reached
  std::uint64_t seed = 1;
  // Optional pooled scratch (only the merge buffers are used: Theorem 4
  // skips the peeling). nullptr = per-run locals; identical results.
  Stage1Scratch* scratch = nullptr;
};

struct RandomPartitionResult {
  PartForest forest;
  std::uint32_t phases_emulated = 0;
  std::uint32_t phases_total = 0;
  std::uint32_t trials_per_phase = 0;
  std::vector<PhaseStats> phase_stats;
};

// Phases needed so (1 - 1/(64*alpha))^t <= eps/2 (Claim 14).
std::uint32_t random_partition_theory_phase_count(double epsilon,
                                                  std::uint32_t alpha);

RandomPartitionResult run_random_partition(congest::Simulator& sim,
                                           const Graph& g,
                                           const RandomPartitionOptions& opt,
                                           congest::RoundLedger& ledger);

}  // namespace cpt
