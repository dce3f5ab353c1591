// lhg_perfbench: the repo benchmark's measuring binary (run.py builds
// and drives it).
//
//   lhg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--first-op <id>] [--spans <path>]
//
// --trace 0 sets the workload up once (setup_s), then times ops for
// --seconds and prints the end-to-end metrics.  Op ids start at
// --first-op, so that run.py can split one run over several processes
// that each continue the op sequence.
// --trace 1 runs the workload's ops alternately untraced and traced
// (the difference is the tracing overhead), then the per-layer probes,
// prints the per-span self-time table, writes the spans to --spans, and
// prints the per-layer metrics.  The last stdout line is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "harness.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kMinBatches = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::int64_t first_op = 0;
  std::string spans;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(val.c_str(), &end, 10));
    } else if (key == "--first-op") {
      a.first_op = std::strtoll(val.c_str(), &end, 10);
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1) && a.first_op >= 0;
}

void print_result(std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream line;
  line << std::setprecision(std::numeric_limits<double>::max_digits10);
  line << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

/// Op walls, failures and busy time accumulated over timed batches.
struct Tally {
  std::vector<double> op_ms;
  std::int64_t failed = 0;
  std::int64_t batch_ns = 0;

  void add(const Batch& b) {
    for (const OpResult& op : b.ops) {
      op_ms.push_back(static_cast<double>(op.wall_ns) / 1e6);
      failed += op.ok ? 0 : 1;
    }
    batch_ns += b.wall_ns;
  }
  std::int64_t attempted() const {
    return static_cast<std::int64_t>(op_ms.size());
  }
};

int run_untraced(const Args& a, Workload& w) {
  Tracer off(false);
  const std::int64_t t0 = now_ns();
  w.setup(a.seed, off);
  const double setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  Tally tally;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  for (int batches = 0; batches < kMinBatches || now_ns() < deadline;
       ++batches) {
    tally.add(w.run_batch(off, a.first_op + tally.attempted()));
  }
  const double p50 = median(tally.op_ms);
  const double ops_per_s =
      static_cast<double>(tally.attempted()) / (tally.batch_ns / 1e9);
  const double rss = peak_rss_mb();
  std::cout << std::setprecision(6) << "workload " << a.workload << " seed "
            << a.seed << " threads " << lhg::core::global_thread_count()
            << '\n'
            << "  setup_s      " << setup_s << " s\n"
            << "  wall_ms_p50  " << p50 << " ms (n=" << tally.attempted()
            << " ops, p25 " << quantile(tally.op_ms, 0.25) << ", p75 "
            << quantile(tally.op_ms, 0.75) << ")\n"
            << "  ops_per_s    " << ops_per_s << " 1/s\n"
            << "  peak_rss_mb  " << rss << " MiB\n"
            << "  failed_ratio "
            << static_cast<double>(tally.failed) / tally.attempted() << " ("
            << tally.failed << " of " << tally.attempted() << " ops)\n";
  print_result(tally.attempted(), tally.failed,
               {{"setup_s", setup_s, "s"},
                {"wall_ms_p50", p50, "ms"},
                {"ops_per_s", ops_per_s, "1/s"},
                {"peak_rss_mb", rss, "MiB"}});
  return 0;
}

int run_traced(const Args& a, Workload& w) {
  Tracer tracer(true);
  Tracer off(false);
  {
    Tracer::Scope s(tracer, "setup");
    w.setup(a.seed, tracer);
  }
  // Untraced and traced batches alternate so both sides see the same
  // machine state, and both batches of a pair run the same op ids, so
  // both sides see the same inputs.  Each is timed from the caller,
  // spans included.
  std::vector<double> plain_ms, traced_ms;
  Tally tally;
  std::int64_t op = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  for (int pairs = 0; pairs < kMinBatches || now_ns() < deadline; ++pairs) {
    std::int64_t t0 = now_ns();
    const Batch plain = w.run_batch(off, op);
    plain_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    t0 = now_ns();
    const Batch traced = w.run_batch(tracer, op);
    traced_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    tally.add(plain);
    tally.add(traced);
    op += static_cast<std::int64_t>(plain.ops.size());
  }
  const double overhead_ms = median(traced_ms) - median(plain_ms);
  std::cout << std::setprecision(6) << "workload " << a.workload << " seed "
            << a.seed << " (traced run)\n"
            << "  tracing overhead " << overhead_ms << " ms per batch ("
            << median(traced_ms) << " traced vs " << median(plain_ms)
            << " untraced, " << plain_ms.size() << " pairs)\n\n";

  LayerReport layers = run_layer_probes(a.seed, tracer, std::cout);
  layers.metrics.push_back(
      {"trace.overhead_ratio", median(traced_ms) / median(plain_ms), "ratio"});

  std::cout << "\nself time per span (benchmark-side spans around public "
               "calls)\n  "
            << std::left << std::setw(36) << "span" << std::right
            << std::setw(8) << "count" << std::setw(12) << "total_ms"
            << std::setw(12) << "self_ms" << '\n';
  for (const SpanSummary& s : summarize(tracer.spans())) {
    std::cout << "  " << std::left << std::setw(36) << s.name << std::right
              << std::setw(8) << s.count << std::setw(12) << std::fixed
              << std::setprecision(2) << s.total_ms << std::setw(12)
              << s.self_ms << '\n'
              << std::defaultfloat;
  }
  if (!a.spans.empty()) {
    tracer.write_json(a.spans);
    std::cout << "spans written to " << a.spans << '\n';
  }
  std::cout << "\nper-layer metrics\n" << std::setprecision(6);
  for (const Metric& m : layers.metrics) {
    std::cout << "  " << std::left << std::setw(40) << m.name << std::right
              << std::setw(14) << m.value << ' ' << m.unit << '\n';
  }
  print_result(tally.attempted() + layers.checks,
               tally.failed + layers.failed, layers.metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse(argc, argv, a)) {
    std::cerr << "usage: lhg_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--first-op <id>] "
                 "[--spans <path>]\n";
    return 2;
  }
  const auto w = make_workload(a.workload);
  if (!w) {
    std::cerr << "unknown workload '" << a.workload << "'\n";
    return 2;
  }
  return a.trace == 0 ? run_untraced(a, *w) : run_traced(a, *w);
}
