// Stage II of the planarity tester (Section 2.2): per part, build a BFS
// tree, check the Euler edge bound, compute a combinatorial embedding
// (Ghaffari-Haeupler substitute, see DESIGN.md), label nodes through the
// rotation system, and hunt for violating non-tree edges by sampling
// Theta(log n / eps) of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "congest/metrics.h"
#include "congest/simulator.h"
#include "partition/part_forest.h"

namespace cpt {

enum class Verdict {
  kAccept,
  kReject,
  kFail,  // congestion-cap overflow during sampling (prob 1/poly(n))
};

struct Stage2Options {
  double epsilon = 0.1;
  std::uint64_t seed = 1;
  // Centralized oracle: check every non-tree edge pair instead of sampling
  // (tests/benches; deterministic detection).
  bool exhaustive_check = false;
};

struct Stage2Stats {
  NodeId parts = 0;
  std::uint32_t max_bfs_depth = 0;
  std::uint32_t max_label_len = 0;
  std::uint64_t total_nontree_edges = 0;
  std::uint64_t sampled_edges = 0;
  std::uint64_t violations_found = 0;
  NodeId parts_certified_planar = 0;      // embedding certified (see DESIGN.md)
  NodeId parts_rejected_edge_bound = 0;   // m > 3n - 6
  NodeId parts_rejected_violation = 0;
  NodeId parts_failed_sampling = 0;
  std::uint64_t exhaustive_violating_edges = 0;  // oracle mode only
};

struct Stage2Result {
  Verdict verdict = Verdict::kAccept;
  std::vector<NodeId> rejecting_nodes;
  std::string reason;
  Stage2Stats stats;
};

Stage2Result run_stage2(congest::Simulator& sim, const Graph& g,
                        const PartForest& pf, const Stage2Options& opt,
                        congest::RoundLedger& ledger);

}  // namespace cpt
