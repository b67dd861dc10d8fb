// Emulation of the Barenboim-Elkin forest-decomposition peeling on the
// contracted auxiliary graph G_i (paper Sections 2.1.1 and 2.1.5).
//
// Each super-round is emulated by three passes on the underlying network:
//   A. a one-round exchange in which every node of a still-active part
//      announces ('Active', root id) to all neighbors;
//   B. a record convergecast up each participating part tree counting
//      distinct active foreign neighbor parts (capped at 3*alpha: more
//      distinct roots collapse to a plain 'Active' overflow, exactly the
//      paper's congestion control);
//   C. a broadcast informing a part's members when it becomes inactive.
// A part that inactivates in super-round l runs passes A+B once more in
// super-round l+1 to learn which neighbors inactivated simultaneously
// (paper: "this process is also executed one super-round after ...").
//
// Parts still active after all super-rounds are arboricity-> 3*alpha
// evidence: their roots output reject.
#pragma once

#include <vector>

#include "congest/metrics.h"
#include "congest/primitives.h"
#include "congest/simulator.h"
#include "partition/part_forest.h"

namespace cpt {

struct PeelingOptions {
  std::uint32_t alpha = 3;        // arboricity bound (3 for planar)
  // Pipelined converge/broadcast streams (strictly fewer rounds and
  // messages, identical decisions); off reproduces the original schedule
  // for differential testing.
  bool pipelined = true;
};

struct PeelingResult {
  // Non-empty => at least one node of G_i stayed active: reject evidence.
  std::vector<NodeId> still_active_roots;
  // Per part root: the BE out-edges in G_i as (neighbor root id, weight),
  // weight = number of G-edges between the two parts. At most 3*alpha.
  std::vector<std::vector<congest::Record>> out_records;
  // Per node, per port: the neighbor's part root, refreshed by pass A.
  std::vector<std::vector<NodeId>> neighbor_root;
  std::uint32_t emulated_super_rounds = 0;  // super-rounds needing messages
};

// Reusable buffers for the peeling emulation. Passing one instance across
// the phases of a partition run keeps every per-node buffer's capacity (the
// record tables are flat arenas; see congest/record_table.h), so repeated
// peelings are allocation-free in steady state. Purely a performance knob:
// contents carry no state between calls.
struct PeelScratch {
  congest::ConvergeRecords conv;
  congest::BroadcastRecords bc;
  congest::TreePorts tree_ports;
  congest::RecordTable local_rec;
  congest::RecordTable rec_at_inact;
  std::vector<std::uint8_t> active, learning, announces, participates;
  std::vector<NodeId> announcing;
  // Participant lists (TreeView::members): nodes of parts still in the
  // peeling (pass B) and of parts inactivating this super-round (pass C).
  std::vector<NodeId> participants, inactivating;
};

// Overwrites `result` completely (capacity is reused across calls).
void run_forest_decomposition(congest::Simulator& sim, const Graph& g,
                              const PartForest& pf, const PeelingOptions& opt,
                              congest::RoundLedger& ledger,
                              PeelingResult& result,
                              PeelScratch* scratch = nullptr);

// Convenience wrapper returning a fresh result.
PeelingResult run_forest_decomposition(congest::Simulator& sim, const Graph& g,
                                       const PartForest& pf,
                                       const PeelingOptions& opt,
                                       congest::RoundLedger& ledger);

}  // namespace cpt
