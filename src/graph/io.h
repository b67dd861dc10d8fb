// Plain-text edge-list I/O:
//   line 1: "<num_nodes> <num_edges>"
//   next num_edges lines: "<u> <v>"
// Comments (lines starting with '#') and blank lines are skipped.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace cpt {

void write_edge_list(const Graph& g, std::ostream& out);

// Reads an edge list from an environmental input (a user-supplied file):
// returns false and fills *error ("edge list: <reason>") on a malformed
// list instead of tripping a contract.
bool try_read_edge_list(std::istream& in, Graph* out, std::string* error);

}  // namespace cpt
