// lhg_cli — command-line front end to the library.
//
//   lhg_cli build  <n> <k> [jd|ktree|kdiamond]     emit edge list to stdout
//   lhg_cli verify <k>  < graph.edges              verify the LHG definition
//   lhg_cli stats       < graph.edges              n / m / degrees / diameter
//   lhg_cli flood  <source> [crashes]  < graph.edges   simulate a flood
//   lhg_cli route  <n> <k> <from> <to>             structured route
//   lhg_cli exists <n> <k>                         EX/REG for all constraints
//   lhg_cli plan   <n> <k> [jd|ktree|kdiamond]     emit lhg-plan text
//   lhg_cli spectral    < graph.edges              lazy-walk gap + conductance
//
// Graphs stream through stdin/stdout in the edge-list format
// ("n m" header, one "u v" per line), so the tool composes with files
// and pipes:  lhg_cli build 100 4 | lhg_cli verify 4

#include <charconv>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "core/bfs.h"
#include "core/check.h"
#include "core/connectivity.h"
#include "core/diameter.h"
#include "core/format.h"
#include "core/graph_io.h"
#include "core/spectral.h"
#include "flooding/failure.h"
#include "flooding/protocols.h"
#include "lhg/lhg.h"
#include "lhg/plan_io.h"
#include "lhg/routing.h"
#include "lhg/verifier.h"

namespace {

using lhg::core::format;

int usage() {
  std::cerr <<
      "usage:\n"
      "  lhg_cli build  <n> <k> [jd|ktree|kdiamond]   (edge list to stdout)\n"
      "  lhg_cli verify <k>                           (edge list on stdin)\n"
      "  lhg_cli stats                                (edge list on stdin)\n"
      "  lhg_cli flood  <source> [crashes]            (edge list on stdin)\n"
      "  lhg_cli route  <n> <k> <from> <to>\n"
      "  lhg_cli exists <n> <k>\n"
      "  lhg_cli plan   <n> <k> [jd|ktree|kdiamond]   (lhg-plan to stdout)\n"
      "  lhg_cli spectral                             (edge list on stdin)\n";
  return 64;
}

/// Parses a numeric argument strictly: the whole text must be one
/// decimal integer that fits `Int` ("12x", "", "1e3" and overflow all
/// throw, so bad input exits 65 instead of being truncated).
template <typename Int>
Int parse_int(const std::string& text, const char* what) {
  Int value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) {
    throw std::invalid_argument(format("bad {} '{}'", what, text));
  }
  return value;
}

lhg::Constraint parse_constraint(const std::string& name) {
  if (name == "jd") return lhg::Constraint::kStrictJD;
  if (name == "ktree") return lhg::Constraint::kKTree;
  if (name == "kdiamond") return lhg::Constraint::kKDiamond;
  throw std::invalid_argument("unknown constraint '" + name + "'");
}

int cmd_build(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto n = parse_int<lhg::core::NodeId>(argv[2], "n");
  const auto k = parse_int<std::int32_t>(argv[3], "k");
  const auto constraint =
      argc > 4 ? parse_constraint(argv[4]) : lhg::Constraint::kKTree;
  lhg::core::write_edge_list(lhg::build(n, k, constraint), std::cout);
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto k = parse_int<std::int32_t>(argv[2], "k");
  const auto g = lhg::core::read_edge_list(std::cin);
  lhg::VerifyOptions options;
  if (g.num_edges() > 512) options.minimality_sample = 128;
  const auto report = lhg::verify(g, k, options);
  std::cout << lhg::to_string(report);
  return report.is_lhg() ? 0 : 1;
}

int cmd_stats(int, char**) {
  const auto g = lhg::core::read_edge_list(std::cin);
  std::cout << lhg::core::describe(g) << '\n';
  if (lhg::core::is_connected(g)) {
    std::cout << format("diameter      : {}\n", lhg::core::diameter(g));
    std::cout << format("kappa / lambda: {} / {}\n",
                        lhg::core::vertex_connectivity(g),
                        lhg::core::edge_connectivity(g));
  } else {
    std::cout << "disconnected\n";
  }
  return 0;
}

int cmd_flood(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto source = parse_int<lhg::core::NodeId>(argv[2], "source");
  const auto crashes =
      argc > 3 ? parse_int<std::int32_t>(argv[3], "crash count") : 0;
  const auto g = lhg::core::read_edge_list(std::cin);
  lhg::core::Rng rng(1);
  const auto plan =
      lhg::flooding::random_crashes(g, crashes, source, rng, /*time=*/0.0);
  const auto result = lhg::flooding::flood(g, {.source = source}, plan);
  std::cout << format(
      "delivered {}/{} live nodes in {} hops with {} messages [{}]\n",
      result.delivered_alive, result.alive_nodes, result.completion_hops,
      result.messages_sent,
      result.all_alive_delivered() ? "complete" : "INCOMPLETE");
  return result.all_alive_delivered() ? 0 : 1;
}

int cmd_route(int argc, char** argv) {
  if (argc < 6) return usage();
  const auto n = parse_int<lhg::core::NodeId>(argv[2], "n");
  const auto k = parse_int<std::int32_t>(argv[3], "k");
  const auto from = parse_int<lhg::core::NodeId>(argv[4], "from");
  const auto to = parse_int<lhg::core::NodeId>(argv[5], "to");
  const auto overlay = lhg::make_routed_overlay(n, k);
  const auto path = overlay.router.route(from, to);
  std::cout << format("{} hops:", path.size() - 1);
  for (const auto node : path) std::cout << ' ' << node;
  std::cout << '\n';
  return 0;
}

int cmd_plan(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto n = parse_int<std::int64_t>(argv[2], "n");
  const auto k = parse_int<std::int32_t>(argv[3], "k");
  const auto constraint =
      argc > 4 ? parse_constraint(argv[4]) : lhg::Constraint::kKTree;
  lhg::write_plan(lhg::plan(n, k, constraint), std::cout);
  return 0;
}

int cmd_spectral(int, char**) {
  const auto g = lhg::core::read_edge_list(std::cin);
  const auto estimate = lhg::core::lazy_walk_lambda2(g);
  std::cout << format("lambda2      : {}\n", estimate.lambda2);
  std::cout << format("spectral gap : {}\n", estimate.gap);
  std::cout << format("conductance  : {}\n", lhg::core::sweep_conductance(g));
  std::cout << format("iterations   : {} ({})\n", estimate.iterations,
                      estimate.converged ? "converged" : "NOT converged");
  return 0;
}

int cmd_exists(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto n = parse_int<std::int64_t>(argv[2], "n");
  const auto k = parse_int<std::int32_t>(argv[3], "k");
  for (const auto constraint :
       {lhg::Constraint::kStrictJD, lhg::Constraint::kKTree,
        lhg::Constraint::kKDiamond}) {
    std::cout << format("{}: EX={} REG={}\n", lhg::to_string(constraint),
                        lhg::exists(n, k, constraint) ? "yes" : "no",
                        lhg::regular_exists(n, k, constraint) ? "yes" : "no");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Bad CLI input trips library preconditions; report those as ordinary
  // "error: ..." messages instead of aborting the process.
  lhg::core::set_check_failure_handler(
      &lhg::core::throwing_check_failure_handler);
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "build") return cmd_build(argc, argv);
    if (command == "verify") return cmd_verify(argc, argv);
    if (command == "stats") return cmd_stats(argc, argv);
    if (command == "flood") return cmd_flood(argc, argv);
    if (command == "route") return cmd_route(argc, argv);
    if (command == "exists") return cmd_exists(argc, argv);
    if (command == "plan") return cmd_plan(argc, argv);
    if (command == "spectral") return cmd_spectral(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 65;
  }
  return usage();
}
