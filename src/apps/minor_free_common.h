// Shared plumbing for the Corollary 16/17 applications: obtain a partition
// of a (promised minor-free) graph -- deterministic Stage I (Theorem 3) or
// the randomized variant (Theorem 4) -- then build per-part BFS trees and
// classify edges, all as real simulator passes.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/metrics.h"
#include "congest/primitives.h"
#include "congest/simulator.h"
#include "partition/part_forest.h"

namespace cpt {

struct Stage1Scratch;  // partition/partition.h
struct Stage1Record;   // partition/partition.h

struct MinorFreeOptions {
  double epsilon = 0.1;
  std::uint32_t alpha = 3;    // arboricity bound of the promised class
  bool randomized = false;    // Theorem 4 instead of Theorem 3
  double delta = 0.1;         // randomized variant's failure probability
  std::uint64_t seed = 1;
  bool adaptive_phases = false;
  // Stage I pipelined converge/broadcast streams (deterministic partition
  // only; the randomized variant has no unpipelined schedule).
  bool pipelined_streams = true;
  unsigned num_threads = 0;   // simulator workers (0 = env default)
  // Cumulative simulated-round budget for the whole app run (0 =
  // unlimited); exhausting it throws congest::RoundBudgetExceeded.
  std::uint64_t max_rounds = 0;
  // Optional pooled per-worker state (batch engine): simulator buffers and
  // Stage I scratch. nullptr = fresh allocations; identical results.
  congest::SimMemory* sim_memory = nullptr;
  Stage1Scratch* scratch = nullptr;
  // Replayable deterministic partition (Stage1Options::record / replay):
  // capture this run's Stage I, or replay one captured on the same graph
  // with the same epsilon, alpha, adaptive, pipelined_streams and
  // max_rounds. Must stay null when `randomized`: Theorem 4 reads the seed.
  Stage1Record* stage1_record = nullptr;
  const Stage1Record* stage1_replay = nullptr;
  // Optional trace track: per-pass ledger spans + simulator events land
  // here (see util/trace.h). nullptr = no tracing.
  util::TraceBuffer* trace = nullptr;
};

// Per-node edge classification against a per-part BFS tree.
struct BfsClassification {
  congest::BfsForest bfs;  // parent/children/level arrays
  // Per node: (port, edge, neighbor_level) of same-part non-tree edges
  // assigned to this node (deeper endpoint, ties to the higher id).
  struct NonTree {
    std::uint32_t port;
    EdgeId edge;
    std::uint32_t nbr_level;
  };
  std::vector<std::vector<NonTree>> assigned;

  explicit BfsClassification(const std::vector<NodeId>& part_root)
      : bfs(part_root) {}
};

// Runs the partition per options; never rejects on minor-free inputs (the
// peeling cannot fail when arboricity <= alpha). `rejected` is set if the
// promise was violated badly enough for the peeling to notice.
struct MinorFreePartition {
  PartForest forest;
  bool rejected = false;
  std::vector<NodeId> rejecting_nodes;
};

MinorFreePartition minor_free_partition(congest::Simulator& sim, const Graph& g,
                                        const MinorFreeOptions& opt,
                                        congest::RoundLedger& ledger);

// BFS trees per part + non-tree edge classification (two passes).
BfsClassification classify_edges(congest::Simulator& sim, const Graph& g,
                                 const PartForest& pf,
                                 congest::RoundLedger& ledger);

}  // namespace cpt
