// Plain-text edge-list I/O:
//   line 1: "<num_nodes> <num_edges>"
//   next num_edges lines: "<u> <v>"
// Comments (lines starting with '#') and blank lines are skipped.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace cpt {

// The most nodes a header may declare. The reader allocates per node
// before it reads an edge, so an untrusted header must not choose that
// size freely. 2^24 nodes (64 MiB of offsets) is past any graph the
// tester can run in memory, at about 8 KiB of tester state per node.
inline constexpr std::uint64_t kMaxEdgeListNodes = std::uint64_t{1} << 24;

void write_edge_list(const Graph& g, std::ostream& out);

// Reads an edge list from an environmental input (a user-supplied file):
// returns false and fills *error ("edge list: <reason>") on a malformed
// list instead of tripping a contract.
bool try_read_edge_list(std::istream& in, Graph* out, std::string* error);

}  // namespace cpt
