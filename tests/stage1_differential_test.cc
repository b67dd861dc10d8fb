// Differential + golden-ledger pinning of the Stage I partition drivers.
//
// Two safety nets behind the arena/root-list/pipelining refactor:
//  1. Differential: Stage I with pipelined streams (the default) and with
//     the unpipelined legacy schedule must produce bit-identical partitions
//     (roots, members, parent edges, per-phase part counts), with the
//     pipelined run costing no more rounds or messages on any phase.
//  2. Golden ledgers: for fixed seeds, the total rounds/messages and a
//     fingerprint of (forest, per-phase rounds/parts/cut) must match the
//     recorded reference values, so later perf PRs cannot silently change
//     the CONGEST complexity or the computed partition.
//
// Regenerating goldens: run with CPT_PRINT_GOLDENS=1 in the environment and
// paste the printed table over kGoldens below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "congest/metrics.h"
#include "congest/network.h"
#include "congest/simulator.h"
#include "graph/generators.h"
#include "partition/partition.h"
#include "tests/test_util.h"

namespace cpt {
namespace {

struct RunOutput {
  Stage1Result result;
  congest::RoundLedger ledger;
};

RunOutput run_stage1_mode(const Graph& g, double epsilon, bool pipelined,
                          unsigned num_threads = 1) {
  congest::Network net(g);
  congest::SimOptions sopt;
  sopt.num_threads = num_threads;
  // Force pool dispatch for every nontrivial round so the sweep exercises
  // the parallel executor even on the small golden graphs.
  if (num_threads > 1) sopt.parallel_grain = 1;
  congest::Simulator sim(net, sopt);
  RunOutput out;
  Stage1Options opt;
  opt.epsilon = epsilon;
  opt.pipelined_streams = pipelined;
  out.result = run_stage1(sim, g, opt, out.ledger);
  return out;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

// Fingerprint of everything the golden pins: the forest (roots and parent
// edges per node) and the per-phase trajectory (rounds, parts, cut).
std::uint64_t fingerprint(const RunOutput& out) {
  std::uint64_t h = 14695981039346656037ULL;
  const PartForest& pf = out.result.forest;
  h = fnv1a(h, pf.num_nodes());
  for (NodeId v = 0; v < pf.num_nodes(); ++v) {
    h = fnv1a(h, pf.root[v]);
    h = fnv1a(h, pf.parent_edge[v]);
  }
  h = fnv1a(h, out.result.rejected ? 1 : 0);
  h = fnv1a(h, out.result.phases_emulated);
  h = fnv1a(h, out.result.phases_total);
  for (const PhaseStats& p : out.result.phase_stats) {
    h = fnv1a(h, p.rounds);
    h = fnv1a(h, p.parts_after);
    h = fnv1a(h, p.cut_after);
  }
  return h;
}

struct Case {
  const char* name;
  Graph graph;
  double epsilon;
};

std::vector<Case> golden_cases() {
  std::vector<Case> cases;
  {
    Rng rng(21);
    cases.push_back({"trigrid_12x9", gen::triangulated_grid(12, 9), 0.25});
    cases.push_back({"grid_16x16", gen::grid(16, 16), 0.25});
    cases.push_back({"rnd_planar_300", gen::random_planar(300, 700, rng), 0.25});
  }
  {
    Rng rng(33);
    cases.push_back({"apollonian_150", gen::apollonian(150, rng), 0.1});
  }
  {
    // eps-far inputs: the dense one rejects with arboricity evidence, the
    // K5 union partitions fine (Stage I only rejects on arboricity).
    Rng rng(7);
    cases.push_back({"far_gnp_dense", gen::gnp(120, 14.0 / 120, rng), 0.25});
    cases.push_back(
        {"far_k5_union", gen::disjoint_copies(gen::complete(5), 20), 0.25});
  }
  return cases;
}

struct Golden {
  const char* name;
  std::uint64_t fp;
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint32_t phases_emulated;
  NodeId parts;
  bool rejected;
};

// Recorded reference ledgers (pipelined Stage I, the shipping default).
// Regenerate with CPT_PRINT_GOLDENS=1.
constexpr Golden kGoldens[] = {
    {"trigrid_12x9", 0x60c1ca4c4c04e240ULL, 10149ULL, 34934ULL, 9u, 1u, false},
    {"grid_16x16", 0xa6fc8f7edffc29c7ULL, 25624ULL, 99392ULL, 10u, 1u, false},
    {"rnd_planar_300", 0xc87a0f30f0a5151ULL, 4163ULL, 57699ULL, 6u, 1u, false},
    {"apollonian_150", 0x5bbc369739e5f915ULL, 5886ULL, 38115ULL, 8u, 1u, false},
    {"far_gnp_dense", 0x971d7828f5851928ULL, 14ULL, 19815ULL, 1u, 120u, true},
    {"far_k5_union", 0x88c6263a825b9832ULL, 1904ULL, 6590ULL, 4u, 20u, false},
};

TEST(Stage1Differential, PipelinedMatchesUnpipelinedPartitions) {
  for (Case& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    const RunOutput pip = run_stage1_mode(c.graph, c.epsilon, true);
    const RunOutput base = run_stage1_mode(c.graph, c.epsilon, false);

    // Identical partition state.
    EXPECT_EQ(pip.result.rejected, base.result.rejected);
    EXPECT_EQ(pip.result.phases_emulated, base.result.phases_emulated);
    EXPECT_EQ(pip.result.forest.root, base.result.forest.root);
    EXPECT_EQ(pip.result.forest.parent_edge, base.result.forest.parent_edge);
    EXPECT_EQ(pip.result.forest.depth, base.result.forest.depth);
    ASSERT_EQ(pip.result.forest.num_nodes(), base.result.forest.num_nodes());
    for (const NodeId r : pip.result.forest.live_roots()) {
      std::vector<NodeId> a = pip.result.forest.members[r];
      std::vector<NodeId> b = base.result.forest.members[r];
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "members of part " << r;
    }
    if (!pip.result.rejected) {
      EXPECT_TRUE(validate_part_forest(c.graph, pip.result.forest));
    }

    // Identical per-phase trajectory, with pipelining only reducing cost.
    ASSERT_EQ(pip.result.phase_stats.size(), base.result.phase_stats.size());
    for (std::size_t i = 0; i < pip.result.phase_stats.size(); ++i) {
      const PhaseStats& a = pip.result.phase_stats[i];
      const PhaseStats& b = base.result.phase_stats[i];
      EXPECT_EQ(a.parts_after, b.parts_after) << "phase " << i + 1;
      EXPECT_EQ(a.cut_after, b.cut_after) << "phase " << i + 1;
      EXPECT_LE(a.rounds, b.rounds) << "phase " << i + 1;
    }
    EXPECT_LE(pip.ledger.total_rounds(), base.ledger.total_rounds());
    EXPECT_LE(pip.ledger.total_messages(), base.ledger.total_messages());
  }
}

TEST(Stage1Differential, GoldenLedgersMatch) {
  const bool print = std::getenv("CPT_PRINT_GOLDENS") != nullptr;
  std::string regen;
  for (Case& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    const RunOutput out = run_stage1_mode(c.graph, c.epsilon, true);
    const std::uint64_t fp = fingerprint(out);
    if (print) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    {\"%s\", 0x%llxULL, %lluULL, %lluULL, %uu, %uu, %s},\n",
                    c.name, static_cast<unsigned long long>(fp),
                    static_cast<unsigned long long>(out.ledger.total_rounds()),
                    static_cast<unsigned long long>(out.ledger.total_messages()),
                    out.result.phases_emulated, out.result.forest.num_parts(),
                    out.result.rejected ? "true" : "false");
      regen += buf;
      continue;
    }
    const Golden* golden = nullptr;
    for (const Golden& gl : kGoldens) {
      if (std::string(gl.name) == c.name) golden = &gl;
    }
    ASSERT_NE(golden, nullptr) << "no golden recorded for " << c.name
                               << "; regenerate with CPT_PRINT_GOLDENS=1";
    EXPECT_EQ(fp, golden->fp) << "fingerprint drift (forest or per-phase "
                                 "rounds changed); regenerate if intended";
    EXPECT_EQ(out.ledger.total_rounds(), golden->rounds);
    EXPECT_EQ(out.ledger.total_messages(), golden->messages);
    EXPECT_EQ(out.result.phases_emulated, golden->phases_emulated);
    EXPECT_EQ(out.result.forest.num_parts(), golden->parts);
    EXPECT_EQ(out.result.rejected, golden->rejected);
  }
  if (print) {
    std::printf("constexpr Golden kGoldens[] = {\n%s};\n", regen.c_str());
    GTEST_SKIP() << "golden print mode";
  }
}

// The tentpole guarantee of the parallel executor: Stage I under 2, 4 and
// 8 workers is bit-identical to the single-thread run -- same golden
// fingerprint (forest + per-phase trajectory), same total rounds and
// messages, for every golden case including the eps-far ones.
TEST(Stage1Differential, ThreadSweepIsBitIdentical) {
  for (Case& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    const RunOutput ref = run_stage1_mode(c.graph, c.epsilon, true, 1);
    const std::uint64_t ref_fp = fingerprint(ref);
    for (const unsigned threads : {2u, 4u, 8u}) {
      SCOPED_TRACE(threads);
      const RunOutput out = run_stage1_mode(c.graph, c.epsilon, true, threads);
      EXPECT_EQ(fingerprint(out), ref_fp);
      EXPECT_EQ(out.ledger.total_rounds(), ref.ledger.total_rounds());
      EXPECT_EQ(out.ledger.total_messages(), ref.ledger.total_messages());
      EXPECT_EQ(out.result.forest.root, ref.result.forest.root);
      EXPECT_EQ(out.result.forest.parent_edge, ref.result.forest.parent_edge);
      EXPECT_EQ(out.result.rejected, ref.result.rejected);
    }
    // The unpipelined legacy schedule must be thread-count-invariant too.
    const RunOutput base = run_stage1_mode(c.graph, c.epsilon, false, 1);
    const RunOutput base4 = run_stage1_mode(c.graph, c.epsilon, false, 4);
    EXPECT_EQ(fingerprint(base4), fingerprint(base));
    EXPECT_EQ(base4.ledger.total_messages(), base.ledger.total_messages());
  }
}

// Skewed-degree stress for the static shards: a hub wired to every node of
// a grid concentrates ~1/3 of all arcs on one node id, so the
// equal-arc-count sharding is maximally lopsided (the hub's shard holds
// almost nothing else). Stage I must still be bit-identical across 1/2/4/8
// workers.
TEST(Stage1Differential, SkewedStarPlusGridSweepIsBitIdentical) {
  constexpr NodeId kRows = 12;
  constexpr NodeId kCols = 12;
  GraphBuilder b(kRows * kCols + 1);
  const Graph grid = gen::grid(kRows, kCols);
  for (EdgeId e = 0; e < grid.num_edges(); ++e) {
    const Endpoints ep = grid.endpoints(e);
    b.add_edge(ep.u + 1, ep.v + 1);
  }
  for (NodeId v = 1; v <= kRows * kCols; ++v) b.add_edge(0, v);
  const Graph g = std::move(b).build();

  const RunOutput ref = run_stage1_mode(g, 0.25, true, 1);
  const std::uint64_t ref_fp = fingerprint(ref);
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    const RunOutput out = run_stage1_mode(g, 0.25, true, threads);
    EXPECT_EQ(fingerprint(out), ref_fp);
    EXPECT_EQ(out.ledger.total_rounds(), ref.ledger.total_rounds());
    EXPECT_EQ(out.ledger.total_messages(), ref.ledger.total_messages());
    EXPECT_EQ(out.result.forest.root, ref.result.forest.root);
    EXPECT_EQ(out.result.forest.parent_edge, ref.result.forest.parent_edge);
    EXPECT_EQ(out.result.rejected, ref.result.rejected);
  }
}

// The ledger's pass-level accounting must stay internally consistent in
// both modes (sum of passes == total), so golden totals are trustworthy.
TEST(Stage1Differential, LedgerSumsAreConsistentInBothModes) {
  Rng rng(5);
  const Graph g = gen::random_planar(150, 340, rng);
  for (const bool pipelined : {true, false}) {
    const RunOutput out = run_stage1_mode(g, 0.25, pipelined);
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
    for (const auto& p : out.ledger.passes()) {
      rounds += p.rounds;
      messages += p.messages;
    }
    EXPECT_EQ(rounds, out.ledger.total_rounds());
    EXPECT_EQ(messages, out.ledger.total_messages());
  }
}

}  // namespace
}  // namespace cpt
