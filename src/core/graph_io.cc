#include "core/graph_io.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/check.h"

namespace lhg::core {

std::string to_dot(const Graph& g, const std::string& name) {
  std::ostringstream out;
  out << "graph " << name << " {\n";
  out << "  node [shape=circle];\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    out << "  " << u << ";\n";
  }
  for (Edge e : g.edges()) {
    out << "  " << e.u << " -- " << e.v << ";\n";
  }
  out << "}\n";
  return out.str();
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (Edge e : g.edges()) {
    out << e.u << ' ' << e.v << '\n';
  }
}

namespace {

/// Edges reserved up front at most; a larger (but legal) header grows
/// the vector as real edge lines arrive instead of trusting the count.
constexpr std::int64_t kMaxEdgeReserve = 1 << 20;

}  // namespace

Graph read_edge_list(std::istream& in) {
  std::string line;
  auto next_data_line = [&](std::string& into) -> bool {
    while (std::getline(in, into)) {
      if (!into.empty() && into[0] != '#') return true;
    }
    return false;
  };
  LHG_CHECK(next_data_line(line), "edge list: missing header");
  std::istringstream header(line);
  std::int64_t n = -1;
  std::int64_t m = -1;
  LHG_CHECK((header >> n >> m) && n >= 0 && m >= 0,
            "edge list: malformed header '{}'", line);
  LHG_CHECK(n <= kMaxNodes,
            "edge list: {} nodes exceeds the limit of {}", n,
            kMaxNodes);
  LHG_CHECK(m <= n * (n - 1) / 2,
            "edge list: {} edges exceed the {} a simple graph on {} nodes "
            "can have",
            m, n * (n - 1) / 2, n);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(std::min(m, kMaxEdgeReserve)));
  for (std::int64_t i = 0; i < m; ++i) {
    LHG_CHECK(next_data_line(line), "edge list: expected {} edges, got {}",
              m, i);
    std::istringstream row(line);
    std::int64_t u = -1;
    std::int64_t v = -1;
    LHG_CHECK((row >> u >> v), "edge list: malformed edge '{}'", line);
    LHG_CHECK(u >= 0 && u < n && v >= 0 && v < n,
              "edge list: edge '{}' has an endpoint outside [0, {})", line, n);
    edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v)});
  }
  LHG_CHECK(!next_data_line(line),
            "edge list: header declares {} edges but more follow ('{}')", m,
            line);
  Graph g = Graph::from_edges(static_cast<NodeId>(n), edges);
  LHG_CHECK(g.num_edges() == m,
            "edge list: {} edge lines hold only {} distinct edges "
            "(duplicates)",
            m, g.num_edges());
  return g;
}

std::string to_edge_list_string(const Graph& g) {
  std::ostringstream out;
  write_edge_list(g, out);
  return out.str();
}

Graph from_edge_list_string(const std::string& text) {
  std::istringstream in(text);
  return read_edge_list(in);
}

}  // namespace lhg::core
