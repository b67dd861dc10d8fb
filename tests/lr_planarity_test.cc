#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "graph/ops.h"
#include "planar/lr_planarity.h"

namespace cpt {
namespace {

// Subdivides every edge of g `times` times (Kuratowski subdivisions keep
// (non-)planarity).
Graph subdivide(const Graph& g, int times) {
  GraphBuilder b(g.num_nodes());
  for (const Endpoints e : g.edges()) {
    NodeId prev = e.u;
    for (int i = 0; i < times; ++i) {
      const NodeId mid = b.add_node();
      b.add_edge(prev, mid);
      prev = mid;
    }
    b.add_edge(prev, e.v);
  }
  return std::move(b).build();
}

// networkx's barbell_graph(k, p): two K_k joined through a p-node path;
// with one clique, its lollipop_graph(k, p): a K_k with a p-node tail.
Graph cliques_on_a_path(NodeId k, NodeId p, int cliques) {
  std::vector<Graph> parts = {gen::complete(k), gen::path(p)};
  std::vector<Endpoints> joins = {{k - 1, k}};
  if (cliques == 2) {
    parts.push_back(gen::complete(k));
    joins.push_back({k + p - 1, k + p});
  }
  return add_edges(disjoint_union(parts), joins);
}

// Two n-cycles joined rung by rung (networkx circular_ladder_graph(n)).
Graph circular_ladder(NodeId n) {
  const std::vector<Graph> rims = {gen::cycle(n), gen::cycle(n)};
  std::vector<Endpoints> rungs;
  for (NodeId i = 0; i < n; ++i) rungs.push_back({i, n + i});
  return add_edges(disjoint_union(rims), rungs);
}

// Dorogovtsev-Goltsev-Mendes pseudofractal graph: start from one edge;
// each generation adds, for every edge, a node adjacent to both of its
// ends. Generation g has 3^g edges and (3^g + 3) / 2 nodes.
Graph dorogovtsev_goltsev_mendes(int generations) {
  std::vector<Endpoints> edges = {{0, 1}};
  NodeId n = 2;
  for (int g = 0; g < generations; ++g) {
    const std::size_t old = edges.size();
    for (std::size_t i = 0; i < old; ++i) {
      const Endpoints e = edges[i];
      edges.push_back({e.u, n});
      edges.push_back({e.v, n});
      ++n;
    }
  }
  GraphBuilder b(n);
  for (const Endpoints e : edges) b.add_edge(e.u, e.v);
  return std::move(b).build();
}

TEST(LrPlanarity, SmallKnownGraphs) {
  EXPECT_TRUE(is_planar(Graph{}));
  EXPECT_TRUE(is_planar(gen::path(1)));
  EXPECT_TRUE(is_planar(gen::complete(4)));
  EXPECT_FALSE(is_planar(gen::complete(5)));
  EXPECT_FALSE(is_planar(gen::complete(6)));
  EXPECT_FALSE(is_planar(gen::complete_bipartite(3, 3)));
  EXPECT_TRUE(is_planar(gen::complete_bipartite(2, 7)));
  EXPECT_TRUE(is_planar(gen::hypercube(3)));
  EXPECT_FALSE(is_planar(gen::hypercube(4)));
  // Expected verdicts as in networkx's planarity tests.
  EXPECT_TRUE(is_planar(cliques_on_a_path(4, 4, 2)));    // barbell(4, 4)
  EXPECT_FALSE(is_planar(cliques_on_a_path(5, 2, 2)));   // barbell(5, 2)
  EXPECT_FALSE(is_planar(cliques_on_a_path(5, 3, 1)));   // lollipop(5, 3)
  EXPECT_TRUE(is_planar(cliques_on_a_path(4, 33, 1)));   // lollipop(4, 33)
  EXPECT_TRUE(is_planar(circular_ladder(15)));
  const Graph dgm = dorogovtsev_goltsev_mendes(7);
  EXPECT_EQ(dgm.num_edges(), 2187u);
  EXPECT_EQ(dgm.num_nodes(), 1095u);
  EXPECT_TRUE(is_planar(dgm));
}

TEST(LrPlanarity, PetersenIsNonPlanar) {
  GraphBuilder pb(10);
  for (NodeId i = 0; i < 5; ++i) {
    pb.add_edge(i, (i + 1) % 5);
    pb.add_edge(i, i + 5);
    pb.add_edge(i + 5, 5 + (i + 2) % 5);
  }
  EXPECT_FALSE(is_planar(std::move(pb).build()));
}

TEST(LrPlanarity, KuratowskiSubdivisionsStayNonPlanar) {
  for (int times = 1; times <= 4; ++times) {
    EXPECT_FALSE(is_planar(subdivide(gen::complete(5), times)));
    EXPECT_FALSE(is_planar(subdivide(gen::complete_bipartite(3, 3), times)));
  }
}

TEST(LrPlanarity, SubdivisionsOfPlanarStayPlanar) {
  for (int times = 1; times <= 3; ++times) {
    EXPECT_TRUE(is_planar(subdivide(gen::complete(4), times)));
    EXPECT_TRUE(is_planar(subdivide(gen::grid(4, 4), times)));
  }
}

TEST(LrPlanarity, DeepStructuresDontOverflow) {
  EXPECT_TRUE(is_planar(gen::path(200000)));
  EXPECT_TRUE(is_planar(gen::cycle(200000)));
}

TEST(LrPlanarity, DisjointUnions) {
  const std::vector<Graph> ok = {gen::grid(5, 5), gen::cycle(9), gen::complete(4)};
  EXPECT_TRUE(is_planar(disjoint_union(ok)));
  const std::vector<Graph> bad = {gen::grid(5, 5), gen::complete(5)};
  EXPECT_FALSE(is_planar(disjoint_union(bad)));
}

TEST(LrPlanarity, EulerBoundShortCircuit) {
  Rng rng(3);
  // Any graph with m > 3n-6 must be declared non-planar.
  const Graph g = gen::gnm(30, 85, rng);  // 85 > 84
  EXPECT_FALSE(is_planar(g));
}

TEST(LrPlanarity, EmbeddingExistsIffPlanar) {
  Rng rng(5);
  EXPECT_TRUE(lr_planar_embedding(gen::grid(6, 6)).has_value());
  EXPECT_FALSE(lr_planar_embedding(gen::complete(5)).has_value());
  EXPECT_FALSE(lr_planar_embedding(gen::hypercube(4)).has_value());
  EXPECT_TRUE(lr_planar_embedding(gen::apollonian(77, rng)).has_value());
}

// Property sweep: random planar graphs are planar; one extra edge on a
// maximal planar graph is not.
class LrSweep : public ::testing::TestWithParam<int> {};

TEST_P(LrSweep, RandomPlanarAccepted) {
  Rng rng(1000 + GetParam());
  const NodeId n = 10 + static_cast<NodeId>(rng.next_below(400));
  const EdgeId m = n - 1 + static_cast<EdgeId>(rng.next_below(2 * n - 5));
  EXPECT_TRUE(is_planar(gen::random_planar(n, m, rng)));
}

TEST_P(LrSweep, MaximalPlanarPlusEdgeRejected) {
  Rng rng(2000 + GetParam());
  const NodeId n = 8 + static_cast<NodeId>(rng.next_below(150));
  const Graph g = gen::apollonian(n, rng);
  EXPECT_FALSE(is_planar(gen::planar_plus_random_edges(g, 1, rng)));
}

TEST_P(LrSweep, SparseGnpMatchesExpectation) {
  // Very sparse G(n, c/n) with c < 1 is a forest plus few unicyclic parts:
  // always planar.
  Rng rng(3000 + GetParam());
  const Graph g = gen::gnp(500, 0.8 / 500, rng);
  EXPECT_TRUE(is_planar(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LrSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace cpt
