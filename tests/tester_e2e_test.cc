#include <algorithm>
#include <bit>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/tester.h"
#include "planar/lr_planarity.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "tests/test_util.h"

namespace cpt {
namespace {

TesterOptions opts(double eps, std::uint64_t seed) {
  TesterOptions o;
  o.epsilon = eps;
  o.seed = seed;
  return o;
}

// One-sidedness: every planar family member is accepted, for every seed.
class OneSided : public ::testing::TestWithParam<int> {};

TEST_P(OneSided, PlanarAlwaysAccepted) {
  for (const auto& c : testutil::planar_family(GetParam())) {
    const TesterResult r = test_planarity(c.graph, opts(0.25, GetParam()));
    EXPECT_EQ(r.verdict, Verdict::kAccept)
        << c.name << " seed=" << GetParam() << " reason=" << r.reason;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneSided, ::testing::Range(0, 6));

// Detection: far-from-planar families are rejected.
class Detection : public ::testing::TestWithParam<int> {};

TEST_P(Detection, FarFamiliesRejected) {
  for (const auto& c : testutil::far_family(GetParam())) {
    const TesterResult r = test_planarity(c.graph, opts(0.2, GetParam()));
    EXPECT_EQ(r.verdict, Verdict::kReject)
        << c.name << " seed=" << GetParam();
    EXPECT_FALSE(r.rejecting_nodes.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Detection, ::testing::Range(0, 4));

TEST(TesterE2e, RejectionReasonsAreInformative) {
  const TesterResult k5 = test_planarity(gen::complete(5), opts(0.2, 1));
  EXPECT_NE(k5.reason.find("edge bound"), std::string::npos);

  Rng rng(2);
  const TesterResult dense =
      test_planarity(gen::gnp(300, 12.0 / 300, rng), opts(0.2, 1));
  EXPECT_NE(dense.reason.find("arboricity"), std::string::npos);
  EXPECT_TRUE(dense.stage1_rejected);
}

TEST(TesterE2e, DeterministicForFixedSeed) {
  Rng rng(3);
  const Graph g = gen::planar_with_k5_blobs(150, 20, rng);
  const TesterResult a = test_planarity(g, opts(0.25, 7));
  const TesterResult b = test_planarity(g, opts(0.25, 7));
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.rounds(), b.rounds());
  EXPECT_EQ(a.rejecting_nodes, b.rejecting_nodes);
}

TEST(TesterE2e, LedgerRoundsAreConsistent) {
  Rng rng(4);
  const Graph g = gen::apollonian(150, rng);
  const TesterResult r = test_planarity(g, opts(0.25, 1));
  std::uint64_t sum = 0;
  for (const auto& p : r.ledger.passes()) sum += p.rounds;
  EXPECT_EQ(sum, r.rounds());
  EXPECT_GT(r.rounds(), 0u);
}

TEST(TesterE2e, EpsilonControlsPhaseBudget) {
  Rng rng(5);
  const Graph g = gen::apollonian(100, rng);
  const TesterResult loose = test_planarity(g, opts(0.5, 1));
  const TesterResult tight = test_planarity(g, opts(0.05, 1));
  EXPECT_LT(loose.stage1_phases_total, tight.stage1_phases_total);
}

TEST(TesterE2e, PartitionMeetsClaim3CutBound) {
  Rng rng(6);
  const Graph g = gen::triangulated_grid(12, 12);
  const double eps = 0.25;
  const TesterResult r = test_planarity(g, opts(eps, 1));
  EXPECT_EQ(r.verdict, Verdict::kAccept);
  EXPECT_LE(static_cast<double>(r.partition.cut_edges),
            eps * g.num_edges() / 2.0);
}

TEST(TesterE2e, BlobDetectionAcrossSeeds) {
  // K5 blobs on a planar backbone survive Stage I (arboricity 3) and must
  // be caught by Stage II sampling, whp over seeds.
  Rng rng(7);
  const Graph g = gen::planar_with_k5_blobs(300, 40, rng);
  int rejected = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    if (test_planarity(g, opts(0.2, seed)).verdict == Verdict::kReject) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 6);
}

TEST(TesterE2e, ExhaustiveOracleAgreesWithSampling) {
  Rng rng(8);
  const Graph g = gen::planar_with_k5_blobs(200, 25, rng);
  TesterOptions sampled = opts(0.2, 3);
  TesterOptions oracle = opts(0.2, 3);
  oracle.stage2.exhaustive_check = true;
  EXPECT_EQ(test_planarity(g, sampled).verdict, Verdict::kReject);
  EXPECT_EQ(test_planarity(g, oracle).verdict, Verdict::kReject);
}

TEST(TesterE2e, DisconnectedMixedVerdict) {
  // Planar component + non-planar component => reject (some node rejects).
  const std::vector<Graph> parts = {gen::grid(8, 8), gen::complete(6)};
  const Graph g = disjoint_union(parts);
  const TesterResult r = test_planarity(g, opts(0.2, 1));
  EXPECT_EQ(r.verdict, Verdict::kReject);
  // Rejecting nodes live in the K6 component (ids >= 64).
  for (const NodeId v : r.rejecting_nodes) EXPECT_GE(v, 64u);
}

// Strong one-sidedness fuzz: on ARBITRARY random graphs (planar or not),
// a reject verdict must imply non-planarity -- the tester never needs to
// reject, but when it does the witness must be real.
class RejectSoundness : public ::testing::TestWithParam<int> {};

TEST_P(RejectSoundness, RejectImpliesNonPlanar) {
  Rng rng(7000 + GetParam());
  const NodeId n = 10 + static_cast<NodeId>(rng.next_below(120));
  const EdgeId max_m = std::min<EdgeId>(3 * n, n * (n - 1) / 2);
  const EdgeId m = 1 + static_cast<EdgeId>(rng.next_below(max_m));
  const Graph g = gen::gnm(n, m, rng);
  const TesterResult r = test_planarity(g, opts(0.2, GetParam()));
  if (r.verdict == Verdict::kReject) {
    EXPECT_FALSE(is_planar(g)) << "false reject: n=" << n << " m=" << m;
  }
  if (is_planar(g)) {
    EXPECT_EQ(r.verdict, Verdict::kAccept);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RejectSoundness, ::testing::Range(0, 20));

// ---- Every graph on up to six nodes ---------------------------------------

// The graph on n nodes whose edges are the set bits of `mask`, over the
// node pairs (u, v), u < v, in lexicographic order.
Graph graph_of(NodeId n, std::uint32_t mask) {
  GraphBuilder b(n);
  std::uint32_t bit = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v, ++bit) {
      if ((mask >> bit) & 1) b.add_edge(u, v);
    }
  }
  return std::move(b).build();
}

// One edge mask per isomorphism class of graphs on n nodes: its canonical
// form, the least mask over all n! relabelings. Masks are visited in
// increasing order, so the first mask of an orbit is its least; the whole
// orbit is marked seen when that mask is reached.
std::vector<std::uint32_t> graph_classes(NodeId n) {
  std::vector<std::vector<std::uint32_t>> bit(n, std::vector<std::uint32_t>(n));
  std::uint32_t pairs = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) bit[u][v] = bit[v][u] = pairs++;
  }
  std::vector<std::vector<NodeId>> perms;
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  do {
    perms.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  std::vector<char> seen(std::size_t{1} << pairs, 0);
  std::vector<std::uint32_t> classes;
  for (std::uint32_t mask = 0; mask < seen.size(); ++mask) {
    if (seen[mask] != 0) continue;
    classes.push_back(mask);
    for (const std::vector<NodeId>& p : perms) {
      std::uint32_t image = 0;
      for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = u + 1; v < n; ++v) {
          if ((mask >> bit[u][v]) & 1) image |= 1u << bit[p[u]][p[v]];
        }
      }
      seen[image] = 1;
    }
  }
  return classes;
}

// Exact distance to planarity: the fewest edges whose deletion leaves a
// planar graph, by brute force over the edge subsets of growing size.
std::uint32_t planarity_distance(NodeId n, std::uint32_t mask) {
  for (int k = 0;; ++k) {
    for (std::uint32_t cut = mask;; cut = (cut - 1) & mask) {
      if (std::popcount(cut) == k && is_planar(graph_of(n, mask & ~cut))) {
        return static_cast<std::uint32_t>(k);
      }
      if (cut == 0) break;
    }
  }
}

// Every graph on n = 1..6 nodes up to isomorphism, with its exact distance
// to planarity, through the full tester at four epsilons and three seeds.
// One-sidedness is exact: no planar graph is rejected at any (epsilon,
// seed). Detection is asserted at the paper's bound: at least 2 of 3 seeds
// reject every (graph, epsilon) pair whose distance exceeds epsilon * m.
TEST(TesterE2e, EveryGraphOnUpToSixNodes) {
  // OEIS A000088 (graphs) and A005470 (planar graphs), n = 1..6.
  const std::size_t kClasses[] = {1, 2, 4, 11, 34, 156};
  const std::uint32_t kPlanar[] = {1, 2, 4, 11, 33, 142};
  // (graph, epsilon) pairs with distance > epsilon * m.
  const std::uint32_t kFarPairs[] = {0, 0, 0, 0, 1, 17};
  const std::uint32_t kEpsilonPercent[] = {5, 10, 20, 30};
  constexpr std::uint32_t kSeeds = 3;
  for (NodeId n = 1; n <= 6; ++n) {
    const std::vector<std::uint32_t> classes = graph_classes(n);
    EXPECT_EQ(classes.size(), kClasses[n - 1]) << "n=" << n;
    std::uint32_t planar = 0, far_pairs = 0, far_rejects = 0;
    for (const std::uint32_t mask : classes) {
      const Graph g = graph_of(n, mask);
      const std::uint32_t distance = planarity_distance(n, mask);
      if (distance == 0) ++planar;
      for (const std::uint32_t percent : kEpsilonPercent) {
        std::uint32_t rejects = 0;
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
          if (test_planarity(g, opts(percent / 100.0, seed)).verdict ==
              Verdict::kReject) {
            ++rejects;
          }
        }
        const std::string where =
            "n=" + std::to_string(n) + " mask=" + std::to_string(mask) +
            " eps=" + std::to_string(percent / 100.0) +
            " distance=" + std::to_string(distance);
        if (distance == 0) {
          EXPECT_EQ(rejects, 0u) << where;
        }
        if (100 * distance > percent * g.num_edges()) {
          ++far_pairs;
          far_rejects += rejects;
          EXPECT_GE(3 * rejects, 2 * kSeeds) << where;
        }
      }
    }
    EXPECT_EQ(planar, kPlanar[n - 1]) << "n=" << n;
    EXPECT_EQ(far_pairs, kFarPairs[n - 1]) << "n=" << n;
    std::printf("n=%u: %zu classes, %u planar, %u far (graph, eps) pairs, "
                "%u of %u far runs rejected\n",
                n, classes.size(), planar, far_pairs, far_rejects,
                far_pairs * kSeeds);
  }
}

TEST(TesterE2e, EmptyAndTinyGraphs) {
  EXPECT_EQ(test_planarity(gen::path(1), opts(0.2, 1)).verdict,
            Verdict::kAccept);
  EXPECT_EQ(test_planarity(gen::path(2), opts(0.2, 1)).verdict,
            Verdict::kAccept);
  EXPECT_EQ(test_planarity(gen::complete(4), opts(0.2, 1)).verdict,
            Verdict::kAccept);
}

}  // namespace
}  // namespace cpt
