// Unit tests for DOT / edge-list serialization.

#include "core/graph_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace lhg::core {
namespace {

Graph triangle() {
  return Graph::from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}, {2, 0}});
}

TEST(GraphIo, DotContainsAllEdges) {
  const auto dot = to_dot(triangle(), "T");
  EXPECT_NE(dot.find("graph T {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1;"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 2;"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2;"), std::string::npos);
}

TEST(GraphIo, EdgeListRoundTrip) {
  Graph g = triangle();
  Graph back = from_edge_list_string(to_edge_list_string(g));
  EXPECT_EQ(g, back);
}

TEST(GraphIo, EdgeListFormat) {
  EXPECT_EQ(to_edge_list_string(triangle()), "3 3\n0 1\n0 2\n1 2\n");
}

TEST(GraphIo, ReadSkipsComments) {
  const std::string text = "# a comment\n3 1\n# another\n0 2\n";
  Graph g = from_edge_list_string(text);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(GraphIo, ReadRejectsMalformed) {
  EXPECT_THROW(from_edge_list_string(""), std::invalid_argument);
  EXPECT_THROW(from_edge_list_string("abc\n"), std::invalid_argument);
  EXPECT_THROW(from_edge_list_string("3 2\n0 1\n"), std::invalid_argument);
  EXPECT_THROW(from_edge_list_string("3 1\n0 bad\n"), std::invalid_argument);
  EXPECT_THROW(from_edge_list_string("3 1\n0 9\n"), std::invalid_argument);
  EXPECT_THROW(from_edge_list_string("-2 0\n"), std::invalid_argument);
}

// Headers that would demand huge allocations, and bodies that disagree
// with their header, are refused with an error instead of hanging,
// wrapping NodeId or loading silently.
TEST(GraphIo, ReadRejectsOversizedOrInconsistentInput) {
  EXPECT_THROW(from_edge_list_string("2000000000 1\n0 1\n"),
               std::invalid_argument);
  EXPECT_THROW(from_edge_list_string("5000000000 1\n0 1\n"),
               std::invalid_argument);
  EXPECT_THROW(from_edge_list_string("3 4\n0 1\n1 2\n0 2\n0 1\n"),
               std::invalid_argument);  // m > n(n-1)/2
  EXPECT_THROW(from_edge_list_string("1000 400000000000\n0 1\n"),
               std::invalid_argument);
  EXPECT_THROW(from_edge_list_string("3 3\n0 1\n1 2\n0 1"),
               std::invalid_argument);  // duplicate edge
  EXPECT_THROW(from_edge_list_string("3 2\n0 1\n1 0\n"),
               std::invalid_argument);  // same edge, reversed
  EXPECT_THROW(from_edge_list_string("3 1\n0 1\n1 2\n"),
               std::invalid_argument);  // body longer than header
  EXPECT_THROW(from_edge_list_string("3 1\n0 4294967297\n"),
               std::invalid_argument);  // would wrap to NodeId 1
}

TEST(GraphIo, ReadAcceptsTheLargestLegalHeader) {
  const Graph g =
      from_edge_list_string("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n");
  EXPECT_EQ(g.num_edges(), 6);
}

TEST(GraphIo, EmptyGraphRoundTrip) {
  Graph g = Graph::from_edges(0, {});
  Graph back = from_edge_list_string(to_edge_list_string(g));
  EXPECT_EQ(back.num_nodes(), 0);
  EXPECT_EQ(back.num_edges(), 0);
}

TEST(GraphIo, StreamInterface) {
  std::stringstream stream;
  write_edge_list(triangle(), stream);
  Graph back = read_edge_list(stream);
  EXPECT_EQ(back, triangle());
}

}  // namespace
}  // namespace lhg::core
