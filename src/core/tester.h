// The distributed one-sided-error planarity tester (Theorem 1): Stage I
// partitioning (Section 2.1) followed by Stage II local planarity
// verification (Section 2.2), with full CONGEST round accounting.
//
// Guarantees mirrored from the paper:
//   * planar G        => every node accepts (one-sided error);
//   * G eps-far       => with probability 1 - 1/poly(n) some node rejects;
//   * round complexity O(log n * poly(1/eps)).
#pragma once

#include <string>
#include <vector>

#include "congest/metrics.h"
#include "core/stage2.h"
#include "partition/partition.h"

namespace cpt {

struct TesterOptions {
  double epsilon = 0.1;
  std::uint64_t seed = 1;
  // Cumulative simulated-round budget across both stages (0 = unlimited);
  // exhausting it throws congest::RoundBudgetExceeded (see simulator.h).
  std::uint64_t max_rounds = 0;
  // Optional pooled simulator buffers (congest::SimMemory); the batch
  // engine reuses one per worker across jobs. nullptr = fresh allocation.
  congest::SimMemory* sim_memory = nullptr;
  // Optional trace track: per-pass ledger spans + simulator events land
  // here (see util/trace.h). nullptr = no tracing.
  util::TraceBuffer* trace = nullptr;
  Stage1Options stage1;   // epsilon is overwritten from the field above
  Stage2Options stage2;   // epsilon/seed are overwritten from above
};

struct TesterResult {
  Verdict verdict = Verdict::kAccept;
  std::vector<NodeId> rejecting_nodes;
  std::string reason;
  congest::RoundLedger ledger;
  // Stage breakdowns.
  bool stage1_rejected = false;
  std::uint32_t stage1_phases_emulated = 0;
  std::uint32_t stage1_phases_total = 0;
  PartitionStats partition;     // measured final partition quality
  Stage2Stats stage2;

  std::uint64_t rounds() const { return ledger.total_rounds(); }
};

TesterResult test_planarity(const Graph& g, const TesterOptions& opt);

}  // namespace cpt
