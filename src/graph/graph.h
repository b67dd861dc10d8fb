// Static undirected simple graph in CSR form, plus a builder.
//
// Nodes are 0..n-1. Edges have stable ids 0..m-1 in sorted-normalized
// (u < v, lexicographic) order -- deterministic for a given edge multiset,
// independent of insertion order; each undirected edge appears as two arcs
// (one per endpoint adjacency list), both carrying the same edge id.
// Self-loops are rejected; parallel edges are deduplicated by the builder.
//
// GraphBuilder::build() is the only way a non-empty Graph is made: it
// allocates the three CSR arrays on the heap, and the Graph holds spans
// over them plus a shared keep-alive handle. Copies are shallow and share the backing; a
// Graph is immutable after construction, so shared views are safe, and
// the arrays outlive every copy.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/contracts.h"

namespace cpt {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);

// One directed half of an undirected edge, as seen from its source node.
// `peer_arc` is the global index (arc_offset(to) + port of the source in
// `to`'s adjacency list) of this arc's reverse, precomputed at build time
// so message delivery can address the receiving half-edge with zero
// lookups (see congest::Simulator).
struct Arc {
  NodeId to;
  EdgeId edge;
  std::uint32_t peer_arc;
};

struct Endpoints {
  NodeId u;
  NodeId v;
};

class Graph {
 public:
  Graph() = default;

  NodeId num_nodes() const { return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1); }
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }

  std::uint32_t degree(NodeId v) const {
    CPT_EXPECTS(v < num_nodes());
    return offsets_[v + 1] - offsets_[v];
  }

  std::span<const Arc> neighbors(NodeId v) const {
    CPT_EXPECTS(v < num_nodes());
    return {arcs_.data() + offsets_[v], arcs_.data() + offsets_[v + 1]};
  }

  // Index of v's first arc in the global arc array (CSR offset). Arc
  // indices order all 2m arcs by (owner node, port); `arc_offset(v) + p`
  // is the global id of v's port p. Accepts v == num_nodes() as the end
  // sentinel.
  std::uint32_t arc_offset(NodeId v) const {
    CPT_EXPECTS(v <= num_nodes());
    return offsets_.empty() ? 0 : offsets_[v];
  }

  Endpoints endpoints(EdgeId e) const {
    CPT_EXPECTS(e < num_edges());
    return edges_[e];
  }

  NodeId other_endpoint(EdgeId e, NodeId v) const {
    const Endpoints ep = endpoints(e);
    CPT_EXPECTS(ep.u == v || ep.v == v);
    return ep.u == v ? ep.v : ep.u;
  }

  bool has_edge(NodeId u, NodeId v) const {
    if (u >= num_nodes() || v >= num_nodes() || u == v) return false;
    const NodeId probe = degree(u) <= degree(v) ? u : v;
    const NodeId want = probe == u ? v : u;
    for (const Arc& a : neighbors(probe)) {
      if (a.to == want) return true;
    }
    return false;
  }

  // Returns the edge id of {u,v}, or kNoEdge if absent.
  EdgeId find_edge(NodeId u, NodeId v) const {
    if (u >= num_nodes() || v >= num_nodes() || u == v) return kNoEdge;
    const NodeId probe = degree(u) <= degree(v) ? u : v;
    const NodeId want = probe == u ? v : u;
    for (const Arc& a : neighbors(probe)) {
      if (a.to == want) return a.edge;
    }
    return kNoEdge;
  }

  std::span<const Endpoints> edges() const { return edges_; }

  // Raw CSR arrays (offsets: n+1 entries; arcs: 2m, ordered by (owner,
  // port)). The corpus writer serializes these verbatim, and its loader
  // accepts a file only when a rebuild reproduces them byte for byte.
  std::span<const std::uint32_t> csr_offsets() const { return offsets_; }
  std::span<const Arc> csr_arcs() const { return arcs_; }

 private:
  friend class GraphBuilder;

  std::span<const std::uint32_t> offsets_;  // size n+1
  std::span<const Arc> arcs_;               // size 2m
  std::span<const Endpoints> edges_;        // size m
  std::shared_ptr<const void> backing_;     // owns the arrays the spans view
};

class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  // Adds an undirected edge; duplicates (in either orientation) are dropped
  // at build() time. Self-loops are a precondition violation.
  void add_edge(NodeId u, NodeId v) {
    CPT_EXPECTS(u < num_nodes_ && v < num_nodes_);
    CPT_EXPECTS(u != v);
    pending_.push_back({u, v});
  }

  // Grow the node count (edges may only reference nodes added so far).
  NodeId add_node() { return num_nodes_++; }

  NodeId num_nodes() const { return num_nodes_; }

  Graph build() &&;

 private:
  NodeId num_nodes_;
  std::vector<Endpoints> pending_;
};

}  // namespace cpt
