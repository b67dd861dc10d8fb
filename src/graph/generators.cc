#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "graph/ops.h"
#include "util/union_find.h"

namespace cpt::gen {
namespace {

// Packs an unordered node pair into a 64-bit key for dedup sets.
std::uint64_t pair_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

}  // namespace

Graph path(NodeId n) {
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return std::move(b).build();
}

Graph cycle(NodeId n) {
  CPT_EXPECTS(n >= 3);
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n);
  return std::move(b).build();
}

Graph star(NodeId n) {
  CPT_EXPECTS(n >= 1);
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) b.add_edge(0, i);
  return std::move(b).build();
}

Graph complete(NodeId k) {
  GraphBuilder b(k);
  for (NodeId i = 0; i < k; ++i) {
    for (NodeId j = i + 1; j < k; ++j) b.add_edge(i, j);
  }
  return std::move(b).build();
}

Graph complete_bipartite(NodeId a, NodeId b_count) {
  GraphBuilder b(a + b_count);
  for (NodeId i = 0; i < a; ++i) {
    for (NodeId j = 0; j < b_count; ++j) b.add_edge(i, a + j);
  }
  return std::move(b).build();
}

Graph grid(NodeId rows, NodeId cols) {
  CPT_EXPECTS(rows >= 1 && cols >= 1);
  GraphBuilder b(rows * cols);
  const auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return std::move(b).build();
}

Graph triangulated_grid(NodeId rows, NodeId cols) {
  CPT_EXPECTS(rows >= 1 && cols >= 1);
  GraphBuilder b(rows * cols);
  const auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
      if (r + 1 < rows && c + 1 < cols) b.add_edge(id(r, c), id(r + 1, c + 1));
    }
  }
  return std::move(b).build();
}

Graph hypercube(std::uint32_t dim) {
  CPT_EXPECTS(dim < 25);
  const NodeId n = NodeId{1} << dim;
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t d = 0; d < dim; ++d) {
      const NodeId w = v ^ (NodeId{1} << d);
      if (v < w) b.add_edge(v, w);
    }
  }
  return std::move(b).build();
}

Graph binary_tree(NodeId n) {
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) b.add_edge(i, (i - 1) / 2);
  return std::move(b).build();
}

Graph random_tree(NodeId n, Rng& rng) {
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) {
    b.add_edge(i, static_cast<NodeId>(rng.next_below(i)));
  }
  return std::move(b).build();
}

namespace {

// Chords of a uniform-ish random triangulation of the convex polygon
// 0..n-1 (recursive split; not the exact uniform distribution over
// triangulations but covers the space and is always non-crossing).
void polygon_triangulation_chords(NodeId lo, NodeId hi, Rng& rng,
                                  std::vector<Endpoints>& out) {
  if (hi - lo < 2) return;
  const NodeId k = lo + 1 + static_cast<NodeId>(rng.next_below(hi - lo - 1));
  if (k > lo + 1) out.push_back({lo, k});
  if (k + 1 < hi) out.push_back({k, hi});
  polygon_triangulation_chords(lo, k, rng, out);
  polygon_triangulation_chords(k, hi, rng, out);
}

}  // namespace

Graph outerplanar(NodeId n, NodeId num_chords, Rng& rng) {
  CPT_EXPECTS(n >= 3);
  CPT_EXPECTS(num_chords + 3 <= n);
  std::vector<Endpoints> chords;
  polygon_triangulation_chords(0, n - 1, rng, chords);
  CPT_ASSERT(chords.size() == static_cast<std::size_t>(n) - 3);
  // Shuffle and keep a prefix.
  for (std::size_t i = chords.size(); i > 1; --i) {
    std::swap(chords[i - 1], chords[rng.next_below(i)]);
  }
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n);
  for (NodeId i = 0; i < num_chords; ++i) b.add_edge(chords[i].u, chords[i].v);
  return std::move(b).build();
}

Graph apollonian(NodeId n, Rng& rng) {
  CPT_EXPECTS(n >= 3);
  GraphBuilder b(n);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  struct Face {
    NodeId a, b, c;
  };
  std::vector<Face> faces;
  // Both sides of the initial triangle are faces; inserting into either keeps
  // the graph planar, so track the outer face too for more variety.
  faces.push_back({0, 1, 2});
  faces.push_back({0, 2, 1});
  for (NodeId v = 3; v < n; ++v) {
    const std::size_t idx = rng.next_below(faces.size());
    const Face f = faces[idx];
    b.add_edge(v, f.a);
    b.add_edge(v, f.b);
    b.add_edge(v, f.c);
    faces[idx] = {f.a, f.b, v};
    faces.push_back({f.b, f.c, v});
    faces.push_back({f.c, f.a, v});
  }
  return std::move(b).build();
}

Graph random_planar(NodeId n, EdgeId m, Rng& rng) {
  CPT_EXPECTS(n >= 3);
  CPT_EXPECTS(m + 1 >= n);            // connected
  CPT_EXPECTS(m <= 3 * n - 6);        // planar
  const Graph maximal = apollonian(n, rng);
  // Random spanning tree of `maximal`: process edges in random order,
  // union-find keeps tree edges.
  std::vector<EdgeId> order(maximal.num_edges());
  for (EdgeId e = 0; e < maximal.num_edges(); ++e) order[e] = e;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  UnionFind uf(n);
  std::vector<bool> keep(maximal.num_edges(), false);
  EdgeId kept = 0;
  for (const EdgeId e : order) {
    const Endpoints ep = maximal.endpoints(e);
    if (uf.unite(ep.u, ep.v)) {
      keep[e] = true;
      ++kept;
    }
  }
  CPT_ASSERT(kept == n - 1);
  // Top up with random non-tree edges until we hit m.
  for (const EdgeId e : order) {
    if (kept == m) break;
    if (!keep[e]) {
      keep[e] = true;
      ++kept;
    }
  }
  GraphBuilder b(n);
  for (EdgeId e = 0; e < maximal.num_edges(); ++e) {
    if (keep[e]) {
      const Endpoints ep = maximal.endpoints(e);
      b.add_edge(ep.u, ep.v);
    }
  }
  return std::move(b).build();
}

Graph gnp(NodeId n, double p, Rng& rng) {
  CPT_EXPECTS(p >= 0.0 && p <= 1.0);
  GraphBuilder b(n);
  if (p > 0.0) {
    // Geometric skipping over the n(n-1)/2 potential edges.
    const double log1mp = std::log1p(-p);
    std::uint64_t idx = 0;
    const std::uint64_t total =
        static_cast<std::uint64_t>(n) * (n - 1) / 2;
    while (true) {
      if (p < 1.0) {
        const double r = rng.next_double();
        idx += 1 + static_cast<std::uint64_t>(std::floor(std::log1p(-r) / log1mp));
      } else {
        idx += 1;
      }
      if (idx > total) break;
      // Map linear index (1-based) to pair (u, v), u < v.
      const std::uint64_t k = idx - 1;
      const NodeId u = static_cast<NodeId>(
          n - 2 -
          static_cast<std::uint64_t>(
              std::floor((std::sqrt(8.0 * (total - 1 - k) + 1) - 1) / 2)));
      const std::uint64_t before_u =
          static_cast<std::uint64_t>(u) * n - static_cast<std::uint64_t>(u) * (u + 1) / 2;
      const NodeId v = static_cast<NodeId>(u + 1 + (k - before_u));
      CPT_ASSERT(u < v && v < n);
      b.add_edge(u, v);
    }
  }
  return std::move(b).build();
}

Graph gnm(NodeId n, EdgeId m, Rng& rng) {
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  CPT_EXPECTS(m <= total);
  std::unordered_set<std::uint64_t> seen;
  GraphBuilder b(n);
  while (seen.size() < m) {
    const NodeId u = static_cast<NodeId>(rng.next_below(n));
    const NodeId v = static_cast<NodeId>(rng.next_below(n));
    if (u == v) continue;
    if (seen.insert(pair_key(u, v)).second) b.add_edge(u, v);
  }
  return std::move(b).build();
}

Graph random_regular(NodeId n, std::uint32_t d, Rng& rng) {
  CPT_EXPECTS(d < n);
  CPT_EXPECTS((static_cast<std::uint64_t>(n) * d) % 2 == 0);
  // Configuration model: pair up n*d stubs; resample on self-loop/multi-edge.
  std::vector<NodeId> stubs(static_cast<std::size_t>(n) * d);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t i = 0; i < d; ++i) stubs[static_cast<std::size_t>(v) * d + i] = v;
  }
  for (int attempt = 0; attempt < 200; ++attempt) {
    for (std::size_t i = stubs.size(); i > 1; --i) {
      std::swap(stubs[i - 1], stubs[rng.next_below(i)]);
    }
    std::unordered_set<std::uint64_t> seen;
    bool ok = true;
    for (std::size_t i = 0; i < stubs.size(); i += 2) {
      const NodeId u = stubs[i];
      const NodeId v = stubs[i + 1];
      if (u == v || !seen.insert(pair_key(u, v)).second) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    GraphBuilder b(n);
    for (std::size_t i = 0; i < stubs.size(); i += 2) {
      b.add_edge(stubs[i], stubs[i + 1]);
    }
    return std::move(b).build();
  }
  throw std::runtime_error(
      "random_regular: no simple graph in 200 configuration-model attempts "
      "(d >= 6 is rarely feasible)");
}

Graph planar_plus_random_edges(const Graph& g, EdgeId extra, Rng& rng) {
  const NodeId n = g.num_nodes();
  CPT_EXPECTS(static_cast<std::uint64_t>(g.num_edges()) + extra <=
              static_cast<std::uint64_t>(n) * (n - 1) / 2);
  std::unordered_set<std::uint64_t> present;
  for (const Endpoints e : g.edges()) present.insert(pair_key(e.u, e.v));
  std::vector<Endpoints> added;
  while (added.size() < extra) {
    const NodeId u = static_cast<NodeId>(rng.next_below(n));
    const NodeId v = static_cast<NodeId>(rng.next_below(n));
    if (u == v) continue;
    if (present.insert(pair_key(u, v)).second) added.push_back({u, v});
  }
  return add_edges(g, added);
}

Graph disjoint_copies(const Graph& g, NodeId t) {
  std::vector<Graph> copies(t, g);
  return disjoint_union(copies);
}

Graph wheel(NodeId n) {
  CPT_EXPECTS(n >= 4);
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) {
    b.add_edge(0, i);
    b.add_edge(i, i + 1 == n ? 1 : i + 1);
  }
  return std::move(b).build();
}

Graph caterpillar(NodeId spine, NodeId legs, Rng& rng) {
  CPT_EXPECTS(spine >= 1);
  GraphBuilder b(spine + legs);
  for (NodeId i = 0; i + 1 < spine; ++i) b.add_edge(i, i + 1);
  for (NodeId leg = 0; leg < legs; ++leg) {
    b.add_edge(spine + leg, static_cast<NodeId>(rng.next_below(spine)));
  }
  return std::move(b).build();
}

Graph toroidal_grid(NodeId rows, NodeId cols) {
  CPT_EXPECTS(rows >= 3 && cols >= 3);
  GraphBuilder b(rows * cols);
  const auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      b.add_edge(id(r, c), id(r, (c + 1) % cols));
      b.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  }
  return std::move(b).build();
}

Graph planar_with_k5_blobs(NodeId backbone_n, NodeId t, Rng& rng) {
  const Graph backbone = random_planar(
      backbone_n, std::min<EdgeId>(2 * backbone_n, 3 * backbone_n - 6), rng);
  GraphBuilder b(backbone_n + 5 * t);
  for (const Endpoints e : backbone.edges()) b.add_edge(e.u, e.v);
  for (NodeId i = 0; i < t; ++i) {
    const NodeId base = backbone_n + 5 * i;
    for (NodeId x = 0; x < 5; ++x) {
      for (NodeId y = x + 1; y < 5; ++y) b.add_edge(base + x, base + y);
    }
    // Glue by a single edge so the K5 contributes no extra planarity slack.
    b.add_edge(base, static_cast<NodeId>(rng.next_below(backbone_n)));
  }
  return std::move(b).build();
}

}  // namespace cpt::gen
