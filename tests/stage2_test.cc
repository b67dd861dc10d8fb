#include <gtest/gtest.h>

#include "congest/network.h"
#include "congest/simulator.h"
#include "core/stage2.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "tests/test_util.h"

namespace cpt {
namespace {

using testutil::whole_graph_parts;

Stage2Result run(const Graph& g, const Stage2Options& opt,
                 congest::RoundLedger* ledger_out = nullptr) {
  congest::Network net(g);
  congest::Simulator sim(net);
  congest::RoundLedger ledger;
  const PartForest pf = whole_graph_parts(g);
  Stage2Result r = run_stage2(sim, g, pf, opt, ledger);
  if (ledger_out != nullptr) *ledger_out = ledger;
  return r;
}

Stage2Options opts(double eps = 0.2, bool exhaustive = false) {
  Stage2Options o;
  o.epsilon = eps;
  o.seed = 12345;
  o.exhaustive_check = exhaustive;
  return o;
}

TEST(Stage2, PlanarPartsAreCertifiedAndAccepted) {
  Rng rng(3);
  const Graph g = gen::random_planar(200, 450, rng);
  const Stage2Result r = run(g, opts());
  EXPECT_EQ(r.verdict, Verdict::kAccept);
  EXPECT_EQ(r.stats.parts_certified_planar, 1u);
  EXPECT_EQ(r.stats.violations_found, 0u);
}

TEST(Stage2, EdgeBoundRejectsDenseParts) {
  const Graph g = gen::complete(5);  // 10 > 3*5-6 = 9
  const Stage2Result r = run(g, opts());
  EXPECT_EQ(r.verdict, Verdict::kReject);
  EXPECT_EQ(r.stats.parts_rejected_edge_bound, 1u);
  EXPECT_EQ(r.reason, "edge bound m > 3n-6");
}

TEST(Stage2, K33PassesEdgeBoundButViolationsCatchIt) {
  // K33: m = 9 <= 3*6-6 = 12, so the edge bound is silent; the sampled
  // violation machinery must reject.
  const Graph g = gen::complete_bipartite(3, 3);
  const Stage2Result r = run(g, opts());
  EXPECT_EQ(r.verdict, Verdict::kReject);
  EXPECT_EQ(r.stats.parts_certified_planar, 0u);
  EXPECT_GT(r.stats.violations_found, 0u);
}

TEST(Stage2, ExhaustiveOracleRejectsK33Deterministically) {
  const Graph g = gen::disjoint_copies(gen::complete_bipartite(3, 3), 5);
  const Stage2Result r = run(g, opts(0.2, /*exhaustive=*/true));
  EXPECT_EQ(r.verdict, Verdict::kReject);
  EXPECT_GT(r.stats.exhaustive_violating_edges, 0u);
  EXPECT_EQ(r.stats.parts_rejected_violation, 5u);
}

TEST(Stage2, PlanarWithManyPartsAllCertified) {
  const Graph g = gen::disjoint_copies(gen::grid(5, 5), 8);
  const Stage2Result r = run(g, opts());
  EXPECT_EQ(r.verdict, Verdict::kAccept);
  EXPECT_EQ(r.stats.parts, 8u);
  EXPECT_EQ(r.stats.parts_certified_planar, 8u);
}

TEST(Stage2, MixedPartsRejectOnlyTheBadOnes) {
  const std::vector<Graph> parts = {gen::grid(6, 6),
                                    gen::complete_bipartite(3, 3),
                                    gen::cycle(12)};
  const Graph g = disjoint_union(parts);
  const Stage2Result r = run(g, opts(0.2, /*exhaustive=*/true));
  EXPECT_EQ(r.verdict, Verdict::kReject);
  EXPECT_EQ(r.stats.parts_certified_planar, 2u);
  EXPECT_EQ(r.stats.parts_rejected_violation, 1u);
}

TEST(Stage2, TreesHaveNoNonTreeEdges) {
  Rng rng(5);
  const Graph g = gen::random_tree(300, rng);
  const Stage2Result r = run(g, opts());
  EXPECT_EQ(r.verdict, Verdict::kAccept);
  EXPECT_EQ(r.stats.total_nontree_edges, 0u);
  EXPECT_EQ(r.stats.sampled_edges, 0u);
}

TEST(Stage2, GhRoundChargeAppearsInLedger) {
  Rng rng(7);
  const Graph g = gen::apollonian(100, rng);
  congest::RoundLedger ledger;
  run(g, opts(), &ledger);
  EXPECT_GT(ledger.rounds_with_prefix("stage2/gh-embedding"), 0u);
  EXPECT_GT(ledger.rounds_with_prefix("stage2/bfs"), 0u);
  EXPECT_GT(ledger.rounds_with_prefix("stage2/labels"), 0u);
}

TEST(Stage2, SampledDetectionIsSeedRobustOnFarParts) {
  // 30 disjoint K33s: each part is 1/9-far from planar; with eps = 0.2 and
  // exhaustive off, detection must succeed for essentially all seeds.
  const Graph g = gen::disjoint_copies(gen::complete_bipartite(3, 3), 30);
  int detected = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Stage2Options o = opts(0.3);
    o.seed = seed;
    congest::Network net(g);
    congest::Simulator sim(net);
    congest::RoundLedger ledger;
    const PartForest pf = whole_graph_parts(g);
    if (run_stage2(sim, g, pf, o, ledger).verdict == Verdict::kReject) {
      ++detected;
    }
  }
  EXPECT_EQ(detected, 8);
}

// The discrepancy this reproduction uncovered (see DESIGN.md): Definition-7
// violations DO exist on planar graphs under BFS labeling (3x3 grid
// counterexample), which is why the certification gate exists. This test
// documents the counterexample.
TEST(Stage2, Claim10CounterexampleDocumented) {
  const Graph g = gen::grid(3, 3);
  Stage2Options o = opts(0.2, /*exhaustive=*/true);
  // With the certification gate, the planar grid is accepted...
  EXPECT_EQ(run(g, o).verdict, Verdict::kAccept);
  // ...but the raw Definition-7 condition does flag edges: disable the gate
  // by checking the labels directly in violation_test / E9 bench. Here we
  // assert the accept-side behaviour stays correct.
  const Stage2Result r = run(g, o);
  EXPECT_EQ(r.stats.exhaustive_violating_edges, 0u);  // gated off
}

}  // namespace
}  // namespace cpt
