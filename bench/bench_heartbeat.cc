// E18 (extension) — heartbeat failure detection on the overlay.
//
// The flooding guarantee is only useful if failures are noticed; the
// natural detector runs heartbeats over the same O(k)-degree links.
// This bench sweeps the timeout/loss plane and reports the classic
// completeness-vs-accuracy trade: detection latency of real crashes vs
// false suspicions caused by loss.
//
// Expected shape: detection latency ~ timeout + interval/2, independent
// of n (monitoring is per-link); false suspicions explode when the
// timeout is within ~2 lost beats of the interval and vanish beyond
// ~4-5 intervals; the message budget is exactly 2m per interval.
//
// Each cell averages over independent per-seed trials fanned across
// core::parallel by flooding::TrialRunner (LHG_THREADS lanes).

#include <algorithm>
#include <iostream>
#include <string>

#include "flooding/failure.h"
#include "flooding/heartbeat.h"
#include "flooding/trial_runner.h"
#include "lhg/lhg.h"
#include "report.h"
#include "table.h"

namespace {

struct Agg {
  std::int32_t detected = 0;
  std::int32_t crashes = 0;
  double max_latency = 0;
  std::int64_t false_susp = 0;
  std::int64_t beats = 0;

  static Agg merge(Agg a, const Agg& b) {
    a.detected += b.detected;
    a.crashes += b.crashes;
    a.max_latency = std::max(a.max_latency, b.max_latency);
    a.false_susp += b.false_susp;
    a.beats += b.beats;
    return a;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace lhg;
  using namespace lhg::flooding;

  const auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report("bench_heartbeat");

  const int trials = opts.small ? 4 : 8;
  const std::int32_t k = 4;
  const core::NodeId n = 302;
  const auto g = build(n, k);
  std::cout << "E18: heartbeat detector on a (" << n << ", " << k
            << ") overlay, horizon 60, interval 1, " << trials
            << " seeds per cell  [threads=" << core::global_thread_count()
            << "]\n";
  bench::Table table({"timeout", "loss", "detected", "max_latency",
                      "false_susp", "beats/node"},
                     12);
  table.print_header();

  for (const double timeout : {2.1, 3.5, 5.0, 8.0}) {
    for (const double loss : {0.0, 0.1, 0.3}) {
      const TrialRunner runner{
          .seed = static_cast<std::uint64_t>(timeout * 10) * 1000 +
                  static_cast<std::uint64_t>(loss * 100)};
      const bench::WallTimer timer;
      const Agg agg = runner.run<Agg>(
          trials, Agg{},
          [&](std::int64_t, core::Rng& rng) {
            FailurePlan plan;
            plan.crashes.push_back({7, 10.0});
            plan.crashes.push_back({42, 25.0});
            plan.crashes.push_back({100, 40.0});
            const auto result = run_heartbeat(
                g, {.timeout = timeout, .horizon = 60.0,
                    .loss_probability = loss, .seed = rng()},
                plan);
            Agg one;
            for (const auto& d : result.detections) {
              one.detected += d.detection_latency >= 0 ? 1 : 0;
            }
            one.crashes = static_cast<std::int32_t>(result.detections.size());
            one.max_latency = result.max_detection_latency();
            one.false_susp = result.false_suspicions;
            one.beats = result.heartbeats_sent;
            return one;
          },
          Agg::merge);
      const std::int64_t wall_ns = timer.elapsed_ns();
      report.add("heartbeat/timeout=" +
                     std::to_string(static_cast<int>(timeout * 10)) +
                     "/loss=" + std::to_string(static_cast<int>(loss * 100)),
                 {{"timeout", timeout},
                  {"loss", loss},
                  {"trials", trials},
                  {"false_susp", agg.false_susp}},
                 wall_ns);
      table.print_row(
          timeout, loss,
          std::to_string(agg.detected) + "/" + std::to_string(agg.crashes),
          agg.max_latency,
          static_cast<double>(agg.false_susp) / trials,
          static_cast<double>(agg.beats) / trials / n);
    }
    std::cout << '\n';
  }
  std::cout << "shape check: detected == crashes everywhere; max_latency ~ "
               "timeout + O(1); false_susp > 0 only at small timeout with "
               "loss, vanishing as timeout grows\n";
  return opts.finish(report);
}
