// Graph families used by tests, benches and examples.
//
// Planar families: path, cycle, star, trees, grid, triangulated_grid,
// outerplanar, apollonian (maximal planar), random_planar.
// Non-planar / far-from-planar families: complete, complete_bipartite (a,b>=3),
// hypercube (dim>=4), gnp/gnm with m >> 3n, random_regular (d>=7 is
// non-planar by edge count for large n), planar_plus_random_edges.
#pragma once

#include <cstdint>

#include "graph/graph.h"
#include "util/rng.h"

namespace cpt::gen {

Graph path(NodeId n);
Graph cycle(NodeId n);
Graph star(NodeId n);  // n nodes total: one hub + n-1 leaves
Graph complete(NodeId k);
Graph complete_bipartite(NodeId a, NodeId b);
Graph grid(NodeId rows, NodeId cols);
// Grid with one diagonal per cell; maximal-planar-like density, diameter
// rows+cols.
Graph triangulated_grid(NodeId rows, NodeId cols);
Graph hypercube(std::uint32_t dim);
Graph binary_tree(NodeId n);

// Random recursive tree: node i >= 1 attaches to a uniform node < i.
Graph random_tree(NodeId n, Rng& rng);

// Cycle 0..n-1 plus `num_chords` non-crossing chords (<= n-3), sampled from a
// uniform random triangulation of the polygon. Always outerplanar.
Graph outerplanar(NodeId n, NodeId num_chords, Rng& rng);

// Random Apollonian network: maximal planar graph with 3n-6 edges (n >= 3),
// built by repeated insertion of a vertex into a uniformly chosen face.
Graph apollonian(NodeId n, Rng& rng);

// Connected planar graph with exactly m edges, n-1 <= m <= 3n-6: a random
// spanning tree of an Apollonian network plus a random subset of its
// remaining edges.
Graph random_planar(NodeId n, EdgeId m, Rng& rng);

// Erdos-Renyi G(n, p) via geometric edge skipping.
Graph gnp(NodeId n, double p, Rng& rng);

// Uniform graph with exactly m edges (m <= n(n-1)/2).
Graph gnm(NodeId n, EdgeId m, Rng& rng);

// Random d-regular graph via the configuration model (resampled until
// simple; requires n*d even, d < n). Throws std::runtime_error when 200
// resamples all fail, as they almost always do for d >= 6.
Graph random_regular(NodeId n, std::uint32_t d, Rng& rng);

// Adds `extra` uniformly random non-edges to g.
Graph planar_plus_random_edges(const Graph& g, EdgeId extra, Rng& rng);

// t disjoint copies of g.
Graph disjoint_copies(const Graph& g, NodeId t);

// Wheel: a cycle of n-1 nodes plus a universal hub (node 0). Planar but not
// outerplanar for n >= 5.
Graph wheel(NodeId n);

// Caterpillar tree: a spine path with random leaf legs. Outerplanar.
Graph caterpillar(NodeId spine, NodeId legs, Rng& rng);

// Toroidal grid (grid with wrap-around rows and columns): genus 1, hence
// non-planar for rows, cols >= 3; locally looks exactly like a grid.
Graph toroidal_grid(NodeId rows, NodeId cols);

// Disjoint copies of K5 glued to a planar backbone by single edges: the
// graph stays connected and is at least (t / m)-far from planar (each K5
// needs one edge removed).
Graph planar_with_k5_blobs(NodeId backbone_n, NodeId t, Rng& rng);

}  // namespace cpt::gen
