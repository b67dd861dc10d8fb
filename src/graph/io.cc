#include "graph/io.h"

#include <cctype>
#include <sstream>
#include <string>

namespace cpt {
namespace {

// Next content line (skipping comments/blanks); false at EOF.
bool next_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    std::size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i == line.size() || line[i] == '#') continue;
    return true;
  }
  return false;
}

}  // namespace

bool try_read_edge_list(std::istream& in, Graph* out, std::string* error) {
  const auto fail = [&](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  std::string line;
  if (!next_line(in, line)) return fail("edge list: missing header");
  std::istringstream header(line);
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  if (!(header >> n >> m)) return fail("edge list: bad header");
  if (n > kMaxEdgeListNodes) return fail("edge list: node count exceeds 2^24");
  GraphBuilder b(static_cast<NodeId>(n));
  for (std::uint64_t i = 0; i < m; ++i) {
    if (!next_line(in, line)) return fail("edge list: truncated");
    std::istringstream row(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(row >> u >> v)) return fail("edge list: bad edge row");
    // GraphBuilder's preconditions, reported instead of tripped: this
    // variant exists precisely so user files cannot abort the process.
    if (u >= n || v >= n) return fail("edge list: endpoint out of range");
    if (u == v) return fail("edge list: self-loop");
    b.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  *out = std::move(b).build();
  return true;
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const Endpoints e : g.edges()) {
    out << e.u << ' ' << e.v << '\n';
  }
}

}  // namespace cpt
