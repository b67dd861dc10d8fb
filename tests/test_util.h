// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <cstring>
#include <queue>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "partition/part_forest.h"
#include "scenario/registry.h"
#include "util/rng.h"

namespace cpt::testutil {

// A PartForest with one part per connected component, rooted at the
// smallest node id, spanned by a BFS tree. Used to drive Stage II directly.
inline PartForest whole_graph_parts(const Graph& g) {
  const NodeId n = g.num_nodes();
  PartForest pf;
  pf.root.assign(n, kNoNode);
  pf.parent_edge.assign(n, kNoEdge);
  pf.children.assign(n, {});
  pf.depth.assign(n, 0);
  pf.members.assign(n, {});
  for (NodeId s = 0; s < n; ++s) {
    if (pf.root[s] != kNoNode) continue;
    pf.root[s] = s;
    pf.members[s].push_back(s);
    std::queue<NodeId> q;
    q.push(s);
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      for (const Arc& a : g.neighbors(v)) {
        if (pf.root[a.to] != kNoNode) continue;
        pf.root[a.to] = s;
        pf.parent_edge[a.to] = a.edge;
        pf.children[v].push_back(a.edge);
        pf.depth[a.to] = pf.depth[v] + 1;
        pf.members[s].push_back(a.to);
        q.push(a.to);
      }
    }
  }
  return pf;
}

// Named planar families for parameterized sweeps.
struct PlanarCase {
  std::string name;
  Graph graph;
};

inline std::vector<PlanarCase> planar_family(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PlanarCase> cases;
  cases.push_back({"grid", gen::grid(9, 13)});
  cases.push_back({"trigrid", gen::triangulated_grid(8, 11)});
  cases.push_back({"cycle", gen::cycle(97)});
  cases.push_back({"path", gen::path(120)});
  cases.push_back({"tree", gen::random_tree(150, rng)});
  cases.push_back({"outerplanar", gen::outerplanar(80, 40, rng)});
  cases.push_back({"apollonian", gen::apollonian(130, rng)});
  cases.push_back({"random_planar", gen::random_planar(140, 300, rng)});
  cases.push_back({"k4", gen::complete(4)});
  return cases;
}

inline std::vector<PlanarCase> far_family(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PlanarCase> cases;
  cases.push_back({"k5_union", gen::disjoint_copies(gen::complete(5), 40)});
  cases.push_back({"k33_union",
                   gen::disjoint_copies(gen::complete_bipartite(3, 3), 40)});
  cases.push_back({"k5_blobs", gen::planar_with_k5_blobs(200, 30, rng)});
  cases.push_back({"gnp_dense", gen::gnp(300, 12.0 / 300, rng)});
  cases.push_back({"k7", gen::complete(7)});
  cases.push_back({"hypercube5", gen::hypercube(5)});
  return cases;
}

// Recomputes the payload checksum (bytes 24-31) and the header checksum
// (bytes 32-39) of an edited .cpg v3 file, as a forger who knows the
// format would, so that only the loader's rebuild can refuse the edit.
inline void reseal_cpg(std::string* bytes) {
  const std::uint64_t payload = scenario::fnv_fold(
      scenario::kFnvOffsetBasis, bytes->data() + 64, bytes->size() - 64);
  std::memcpy(bytes->data() + 24, &payload, 8);
  const std::uint64_t header =
      scenario::fnv_fold(scenario::kFnvOffsetBasis, bytes->data(), 32);
  std::memcpy(bytes->data() + 32, &header, 8);
}

// Byte offset of the arcs section of a .cpg v3 file with n nodes.
inline std::size_t cpg_arcs_offset(std::uint64_t n) {
  return (64 + 4 * (n + 1) + 63) & ~std::size_t{63};
}

}  // namespace cpt::testutil
