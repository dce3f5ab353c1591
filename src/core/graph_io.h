// Graph serialization: DOT export for visual inspection, and a plain
// edge-list text format for interchange with external tools.
//
// Edge-list format:
//   line 1:  "<num_nodes> <num_edges>"
//   then one "u v" pair per line (0-based ids, any order).
// Comment lines starting with '#' are skipped on read.

#pragma once

#include <iosfwd>
#include <string>

#include "core/graph.h"

namespace lhg::core {

/// Graphviz DOT representation (undirected, `graph G { ... }`).
/// `name` becomes the graph identifier.
std::string to_dot(const Graph& g, const std::string& name = "G");

/// Writes the edge-list format to `out`.
void write_edge_list(const Graph& g, std::ostream& out);

/// Parses the edge-list format.  Throws std::invalid_argument on
/// malformed input: a bad header, more nodes than the reader's limit or
/// more edges than a simple graph on n nodes can have, out-of-range
/// ids, self-loops, duplicate edges, or an edge count that disagrees
/// with the header.
Graph read_edge_list(std::istream& in);

/// Round-trips through strings (convenience for tests and examples).
std::string to_edge_list_string(const Graph& g);
Graph from_edge_list_string(const std::string& text);

}  // namespace lhg::core
