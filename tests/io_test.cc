#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "graph/generators.h"
#include "graph/io.h"

namespace cpt {
namespace {

// Reads an edge list that must parse.
Graph read_valid(std::istream& in) {
  Graph g;
  std::string error;
  EXPECT_TRUE(try_read_edge_list(in, &g, &error)) << error;
  return g;
}

Graph read_valid(const std::string& text) {
  std::istringstream in(text);
  return read_valid(in);
}

TEST(GraphIo, RoundTripPreservesGraph) {
  Rng rng(3);
  const Graph g = gen::random_planar(80, 180, rng);
  std::stringstream buffer;
  write_edge_list(g, buffer);
  const Graph back = read_valid(buffer);
  ASSERT_EQ(back.num_nodes(), g.num_nodes());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (const Endpoints e : g.edges()) {
    EXPECT_TRUE(back.has_edge(e.u, e.v));
  }
}

TEST(GraphIo, SkipsCommentsAndBlankLines) {
  const Graph g =
      read_valid("# a triangle\n\n3 3\n0 1\n# middle comment\n1 2\n\n0 2\n");
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(GraphIo, EmptyGraph) {
  const Graph g = read_valid("0 0\n");
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphIo, IsolatedNodesSurvive) {
  const Graph g = read_valid("5 1\n0 4\n");
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(GraphIo, FileRoundTrip) {
  const Graph g = gen::triangulated_grid(6, 7);
  const std::string path = ::testing::TempDir() + "/cpt_io_test.edges";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    write_edge_list(g, out);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const Graph back = read_valid(in);
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  EXPECT_EQ(back.num_edges(), g.num_edges());
}

// Every way a list can be malformed is reported with its own reason,
// never a contract abort.
TEST(GraphIo, RejectsEachMalformedListWithItsReason) {
  const struct {
    const char* text;
    const char* error;
  } cases[] = {
      {"", "edge list: missing header"},
      {"# only a comment\n\n", "edge list: missing header"},
      {"three 3\n", "edge list: bad header"},
      {"4294967296 0\n", "edge list: node count exceeds 2^32"},
      {"3 2\n0 1\n", "edge list: truncated"},
      {"3 1\n0 x\n", "edge list: bad edge row"},
      {"2 1\n0 5\n", "edge list: endpoint out of range"},
      {"3 1\n1 1\n", "edge list: self-loop"},
  };
  for (const auto& c : cases) {
    std::istringstream in(c.text);
    Graph g;
    std::string error;
    EXPECT_FALSE(try_read_edge_list(in, &g, &error)) << c.text;
    EXPECT_EQ(error, c.error) << c.text;
  }
}

}  // namespace
}  // namespace cpt
