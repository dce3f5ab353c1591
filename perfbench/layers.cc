#include "layers.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iomanip>
#include <optional>
#include <string>
#include <utility>

#include "core/bfs_generic.h"
#include "core/connectivity.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "flooding/event_sim.h"
#include "flooding/flood_generic.h"
#include "flooding/network.h"
#include "flooding/reliable_broadcast.h"
#include "flooding/repair.h"
#include "flooding/shard_sim.h"
#include "flooding/trial_runner.h"
#include "lhg/implicit.h"
#include "lhg/lhg.h"
#include "membership/incremental.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fl = lhg::flooding;
using lhg::core::Graph;
using lhg::core::NodeId;
using lhg::core::Rng;

constexpr int kLadderReps = 5;
// |e2e - (L0 + dL1 + dL3)| / e2e above this is reported as a ladder
// miss.
constexpr double kLadderTolerance = 0.10;
constexpr int kCtorReps = 5;
constexpr int kBuildReps = 3;
constexpr int kBroadcastReps = 3;
constexpr int kRepairBatches = 2;
constexpr std::int32_t kShards = 4;

struct Arc {
  NodeId from;
  NodeId to;
  std::int32_t link;
};

// The exact send sequence of flood_1m.  The single-queue flood delivers
// in FIFO order at each timestamp, so its processing order is the BFS
// discovery order and a node's first copy comes from its BFS discoverer,
// to which it does not forward.
struct FloodPattern {
  std::vector<std::int32_t> dist;
  std::vector<Arc> arcs;                 // every send, in flood order
  std::vector<std::size_t> level_begin;  // level d: [begin[d], begin[d+1])
  std::vector<std::int64_t> events_at;   // deliveries at virtual time t
  std::int32_t levels = 0;
};

FloodPattern flood_pattern(const lhg::ImplicitLhg& view) {
  const auto n = static_cast<std::size_t>(view.num_nodes());
  FloodPattern p;
  p.dist.assign(n, -1);
  std::vector<NodeId> parent(n, -1);
  std::vector<NodeId> order;
  order.reserve(n);
  p.dist[0] = 0;
  order.push_back(0);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    for (std::int32_t i = 0; i < view.degree(v); ++i) {
      const NodeId u = view.neighbor(v, i);
      auto& d = p.dist[static_cast<std::size_t>(u)];
      if (d < 0) {
        d = p.dist[static_cast<std::size_t>(v)] + 1;
        parent[static_cast<std::size_t>(u)] = v;
        order.push_back(u);
      }
    }
  }
  p.levels = p.dist[static_cast<std::size_t>(order.back())] + 1;
  p.events_at.assign(static_cast<std::size_t>(p.levels) + 1, 0);
  for (const NodeId v : order) {
    const auto d = static_cast<std::size_t>(p.dist[static_cast<std::size_t>(v)]);
    while (p.level_begin.size() <= d) p.level_begin.push_back(p.arcs.size());
    for (std::int32_t i = 0; i < view.degree(v); ++i) {
      const NodeId u = view.neighbor(v, i);
      if (u == parent[static_cast<std::size_t>(v)]) continue;
      p.arcs.push_back({v, u, view.incident_edge(v, i)});
      ++p.events_at[d + 1];
    }
  }
  p.level_begin.push_back(p.arcs.size());
  return p;
}

// L0 sink: every delivery at time t schedules its share of the pattern's
// deliveries at t + 1, so the bare queue sees flood_1m's event counts
// per timestamp with no network or protocol work.
class LevelReplaySink final : public fl::Simulator::DeliverSink {
 public:
  LevelReplaySink(fl::Simulator& sim, const std::vector<std::int64_t>& at)
      : sim_(sim), seen_(at.size(), 0), base_(at.size(), 0),
        extra_(at.size(), 0) {
    for (std::size_t t = 1; t + 1 < at.size(); ++t) {
      base_[t] = at[t + 1] / at[t];
      extra_[t] = at[t + 1] % at[t];
    }
  }

  void on_deliver(std::int32_t from, std::int32_t to, std::int32_t link,
                  std::int64_t t) override {
    const auto level = static_cast<std::size_t>(t);
    const std::int64_t idx = seen_[level]++;
    const std::int64_t fan = base_[level] + (idx < extra_[level] ? 1 : 0);
    for (std::int64_t j = 0; j < fan; ++j) {
      sim_.schedule_deliver_in(1.0, this, from, to, link, t + 1);
    }
  }

 private:
  fl::Simulator& sim_;
  std::vector<std::int64_t> seen_, base_, extra_;
};

// Distinct-time sink: keeps a fixed population of pending deliveries,
// each one replaced at now + a pre-drawn delay until the budget is spent.
class HoldSink final : public fl::Simulator::DeliverSink {
 public:
  HoldSink(fl::Simulator& sim, const std::vector<double>& delays)
      : sim_(sim), delays_(delays) {}

  void push() {
    sim_.schedule_deliver_in(delays_[next_++], this, 0, 0, 0, 0);
  }
  void on_deliver(std::int32_t, std::int32_t, std::int32_t,
                  std::int64_t) override {
    if (next_ < delays_.size()) push();
  }

 private:
  fl::Simulator& sim_;
  const std::vector<double>& delays_;
  std::size_t next_ = 0;
};

// L0: the pattern's deliveries through a bare Simulator.
struct QueueReplay {
  std::int64_t wall_ns = 0;
  std::int64_t events = 0;
};

QueueReplay l0_queue(const FloodPattern& p) {
  QueueReplay r;
  const std::int64_t t0 = now_ns();
  fl::Simulator sim;
  LevelReplaySink sink(sim, p.events_at);
  sim.schedule_at(0.0, [&sim, &sink, first = p.events_at[1]] {
    for (std::int64_t i = 0; i < first; ++i) {
      sim.schedule_deliver_in(1.0, &sink, 0, 0, 0, 1);
    }
  });
  sim.run();
  r.wall_ns = now_ns() - t0;
  r.events = sim.events_processed();
  return r;
}

// L1 / L2: the flood's sends, level by level from one callback per
// timestamp, through BasicNetwork::send_link with a counting handler.
struct NetworkReplay {
  std::int64_t wall_ns = 0;
  std::int64_t sent = 0;
  std::int64_t delivered = 0;
};

NetworkReplay network_replay(const lhg::ImplicitLhg& view,
                             const FloodPattern& p, fl::LatencySpec latency,
                             const fl::ChaosSpec& chaos, std::uint64_t seed) {
  NetworkReplay out;
  const std::int64_t t0 = now_ns();
  fl::Simulator sim;
  Rng rng(seed);
  fl::BasicNetwork<lhg::ImplicitLhg> net(view, sim, latency, rng, chaos);
  std::int64_t received = 0;
  net.set_receive_handler(
      [&received](NodeId, NodeId, std::int64_t) { ++received; });
  for (std::int32_t d = 0; d < p.levels; ++d) {
    sim.schedule_at(static_cast<double>(d), [&net, &p, d] {
      const auto lo = p.level_begin[static_cast<std::size_t>(d)];
      const auto hi = p.level_begin[static_cast<std::size_t>(d) + 1];
      for (std::size_t a = lo; a < hi; ++a) {
        net.send_link(p.arcs[a].from, p.arcs[a].to, p.arcs[a].link, d);
      }
    });
  }
  sim.run();
  out.wall_ns = now_ns() - t0;
  out.sent = net.stats().sent;
  out.delivered = received;
  return out;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

class Probes {
 public:
  Probes(std::uint64_t seed, Tracer& tracer, std::ostream& out)
      : seed_(seed), tracer_(tracer), out_(out) {}

  LayerReport run() {
    topology();
    broadcast();  // first: the distinct-time rung replays its event count
    ladder();
    shards();
    repair();
    membership();
    return std::move(report_);
  }

 private:
  void add(std::string name, double value, std::string unit) {
    report_.metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const char* what) {
    ++report_.checks;
    if (!ok) {
      ++report_.failed;
      out_ << "CHECK FAILED: " << what << '\n';
    }
  }

  void topology() {
    Tracer::Scope probe(tracer_, "probe.topology");
    std::vector<double> ctor, build, bfs;
    for (int i = 0; i < kCtorReps; ++i) {
      view_.reset();
      Tracer::Scope s(tracer_, "lhg.ImplicitLhg");
      const std::int64_t t0 = now_ns();
      view_.emplace(kFloodN, kK);
      ctor.push_back(ms(now_ns() - t0));
    }
    for (int i = 0; i < kBuildReps; ++i) {
      graph64k_.reset();
      Tracer::Scope s(tracer_, "lhg.build");
      const std::int64_t t0 = now_ns();
      graph64k_.emplace(lhg::build(kLossyN, kK));
      build.push_back(ms(now_ns() - t0));
    }
    std::vector<std::int32_t> dist;
    for (int i = 0; i < kBuildReps; ++i) {
      Tracer::Scope s(tracer_, "core.generic_bfs_distances");
      const std::int64_t t0 = now_ns();
      dist = lhg::core::generic_bfs_distances(*view_, 0);
      bfs.push_back(ms(now_ns() - t0));
    }
    pattern_ = flood_pattern(*view_);
    check(dist == pattern_.dist, "BFS reference matches the flood pattern");
    add("lhg.implicit_ctor_ms", median(ctor), "ms");
    add("lhg.build_ms", median(build), "ms");
    add("core.bfs_ms", median(bfs), "ms");
    out_ << "topology: ImplicitLhg(1e6,4) " << median(ctor)
         << " ms, build(65536,4) " << median(build) << " ms, BFS(1e6) "
         << median(bfs) << " ms, " << pattern_.levels << " BFS levels, "
         << pattern_.arcs.size() << " flood sends\n";
  }

  void broadcast() {
    Tracer::Scope probe(tracer_, "probe.reliable_broadcast");
    const fl::ReliableBroadcastConfig cfg = lossy_config(seed_, 0);
    std::vector<double> walls;
    std::optional<fl::ReliableBroadcastResult> first;
    for (int i = 0; i < kBroadcastReps; ++i) {
      Tracer::Scope s(tracer_, "flooding.reliable_broadcast");
      const std::int64_t t0 = now_ns();
      fl::ReliableBroadcastResult r = fl::reliable_broadcast(*graph64k_, cfg);
      walls.push_back(ms(now_ns() - t0));
      check(r.delivery_ratio() == 1.0, "reliable broadcast delivers all");
      if (!first) {
        first = std::move(r);
      } else {
        check(r.events_processed == first->events_processed &&
                  r.net.sent == first->net.sent,
              "reliable broadcast is deterministic");
      }
    }
    const fl::ReliableBroadcastResult& r = *first;
    broadcast_events_ = r.events_processed;
    const double wall = median(walls);
    add("reliable_broadcast.ns_per_event", wall * 1e6 / r.events_processed,
        "ns");
    add("reliable_broadcast.goodput_ratio",
        static_cast<double>(r.delivered_alive) / r.net.sent, "ratio");
    add("reliable_link.retransmissions", r.retransmissions, "count");
    add("reliable_link.acks", r.acks_sent, "count");
    add("reliable_link.duplicates_suppressed", r.duplicates_suppressed,
        "count");
    add("reliable_link.window_overflows", r.window_overflows, "count");
    out_ << "reliable_broadcast(65536,4, 10% loss): " << wall << " ms, "
         << r.events_processed << " events, " << r.net.sent << " sends, "
         << r.retransmissions << " retransmits, " << r.acks_sent << " acks\n";
  }

  // Bare-queue rungs that replay reliable_lossy_64k's event count at
  // distinct timestamps, as deliveries and as schedule_in timers.
  std::pair<double, double> distinct_time_rungs() {
    const auto n = static_cast<std::size_t>(broadcast_events_);
    Rng rng(seed_);
    std::vector<double> delays(n);
    for (double& d : delays) d = 1.0 + 0.5 * rng.next_double();
    const std::size_t population = std::min<std::size_t>(kLossyN, n);

    std::int64_t deliver_ns = 0;
    {
      Tracer::Scope s(tracer_, "event_sim.run.distinct_time");
      const std::int64_t t0 = now_ns();
      fl::Simulator sim;
      HoldSink sink(sim, delays);
      for (std::size_t i = 0; i < population; ++i) sink.push();
      sim.run();
      deliver_ns = now_ns() - t0;
      check(sim.events_processed() == broadcast_events_,
            "distinct-time replay event count");
    }
    std::int64_t callback_ns = 0;
    {
      Tracer::Scope s(tracer_, "event_sim.run.callbacks");
      const std::int64_t t0 = now_ns();
      fl::Simulator sim;
      std::size_t next = 0;
      struct Timer {
        fl::Simulator* sim;
        const std::vector<double>* delays;
        std::size_t* next;
        void operator()() const {
          if (*next < delays->size()) sim->schedule_in((*delays)[(*next)++], *this);
        }
      };
      for (std::size_t i = 0; i < population; ++i) {
        sim.schedule_in(delays[next++], Timer{&sim, &delays, &next});
      }
      sim.run();
      callback_ns = now_ns() - t0;
      check(sim.events_processed() == broadcast_events_ &&
                sim.callback_heap_allocations() == 0,
            "callback replay event count, inline captures");
    }
    return {static_cast<double>(deliver_ns) / broadcast_events_,
            static_cast<double>(callback_ns) / broadcast_events_};
  }

  void ladder() {
    Tracer::Scope probe(tracer_, "probe.ladder");
    const lhg::ImplicitLhg& view = *view_;
    const fl::FloodConfig cfg1 = flood_config(seed_, 1);
    const fl::FloodConfig cfg4 = flood_config(seed_, kShards);
    fl::FloodConfig cfg_metrics = cfg1;
    cfg_metrics.obs.metrics = true;
    fl::FloodConfig cfg_trace = cfg_metrics;
    cfg_trace.obs.trace = true;
    const fl::ChaosSpec chaos = fl::ChaosSpec::iid(0.10);

    // The end-to-end row: flood_1m's own op, exactly as its runs time it.
    std::unique_ptr<Workload> e2e = make_workload("flood_1m");
    Tracer untraced(false);
    e2e->setup(seed_, untraced);

    // Every send of the pattern is one deliver event, plus the bootstrap.
    const double events = static_cast<double>(pattern_.arcs.size() + 1);
    enum Rung { kL0, kL1, kL2, kL3, kE2e, kL4, kL5, kL6s1, kL6s4, kRungs };
    std::vector<double> ns(kRungs);
    // Rungs that allocate alike are measured together: each runs once
    // untimed, then the group takes kLadderReps rounds, one run of each
    // rung per round.  The allocator then holds the group's steady state,
    // as it does for the ops of a workload run, and the rungs of a group
    // share every burst of machine noise.
    struct Step {
      Rung rung;
      const char* span;
      std::function<std::int64_t()> once;  // runs and checks; returns wall
    };
    const auto measure = [&](std::vector<Step> steps) {
      for (Step& step : steps) step.once();
      std::vector<std::vector<double>> per_event(steps.size());
      for (int i = 0; i < kLadderReps; ++i) {
        for (std::size_t j = 0; j < steps.size(); ++j) {
          Tracer::Scope s(tracer_, steps[j].span);
          per_event[j].push_back(static_cast<double>(steps[j].once()) / events);
        }
      }
      for (std::size_t j = 0; j < steps.size(); ++j) {
        ns[static_cast<std::size_t>(steps[j].rung)] = median(per_event[j]);
      }
    };
    std::optional<fl::DisseminationResult> flood_ref;
    const auto flood_step = [&](Rung rung, const char* span,
                                const fl::FloodConfig& cfg, bool sharded,
                                const char* what) {
      return Step{rung, span, [&, cfg, sharded, what] {
                    const std::int64_t t0 = now_ns();
                    fl::DisseminationResult r = sharded
                                                    ? fl::sharded_flood(view, cfg)
                                                    : fl::flood(view, cfg);
                    const std::int64_t wall = now_ns() - t0;
                    if (!flood_ref) {
                      flood_ref = std::move(r);
                    } else {
                      check(same_flood(*flood_ref, r), what);
                    }
                    return wall;
                  }};
    };

    measure({{kL0, "event_sim.run.same_time", [&] {
                const QueueReplay r = l0_queue(pattern_);
                check(r.events == static_cast<std::int64_t>(events),
                      "L0 replays the flood's events");
                return r.wall_ns;
              }}});
    NetworkReplay l1, l2;
    measure({{kL1, "network.send_link.replay",
              [&] {
                l1 = network_replay(view, pattern_, cfg1.latency, {}, seed_);
                return l1.wall_ns;
              }},
             {kL2, "network.send_link.chaos_replay", [&] {
                l2 = network_replay(view, pattern_, cfg1.latency, chaos,
                                    seed_);
                return l2.wall_ns;
              }}});
    std::int64_t e2e_op = 0;
    measure({flood_step(kL3, "flooding.flood", cfg1, false,
                        "the flood is deterministic"),
             {kE2e, "op.flood_1m",
              [&] {
                const Batch b = e2e->run_batch(untraced, e2e_op++);
                check(b.ops[0].ok, "flood_1m op");
                return b.wall_ns;
              }},
             flood_step(kL4, "flooding.flood.metrics", cfg_metrics, false,
                        "obs metrics leave the flood unchanged"),
             flood_step(kL5, "flooding.flood.trace", cfg_trace, false,
                        "obs trace leaves the flood unchanged")});
    measure({flood_step(kL6s1, "flooding.sharded_flood.s1", cfg1, true,
                        "sharded S=1 flood equals the single queue"),
             flood_step(kL6s4, "flooding.flood.s4", cfg4, false,
                        "sharded S=4 flood equals the single queue")});

    const fl::DisseminationResult& f = *flood_ref;
    const std::int64_t sends = static_cast<std::int64_t>(pattern_.arcs.size());
    check(f.delivery_hops == pattern_.dist && f.all_alive_delivered(),
          "flood hops equal BFS distances");
    check(f.events_processed == static_cast<std::int64_t>(events),
          "the flood's events are its sends plus the bootstrap");
    check(l1.sent == f.messages_sent && l1.delivered == f.net.delivered,
          "L1 replays the flood's sends and deliveries");
    check(l2.sent == f.messages_sent, "L2 replays the flood's sends");

    // Every rung is normalised by the flood's event count, so the deltas
    // of the L0 -> L1 -> L3 chain add up to the L3 row exactly and the
    // residual against the independently timed e2e row is pure error.
    // It compares two timings, not program outputs, so a miss is
    // reported but does not count as a failed check: on a noisy machine
    // it can miss with correct code.
    const auto at = [&](Rung r) { return ns[static_cast<std::size_t>(r)]; };
    const double sum = at(kL0) + (at(kL1) - at(kL0)) + (at(kL3) - at(kL1));
    const double residual = (at(kE2e) - sum) / at(kE2e);
    const bool ladder_ok = std::abs(residual) <= kLadderTolerance;

    struct Row {
      const char* name;
      const char* adds;
      Rung rung;
      Rung below;
    };
    const Row rows[] = {
        {"L0", "bare Simulator, counting sink", kL0, kL0},
        {"L1", "+ BasicNetwork send path", kL1, kL0},
        {"L2", "+ 10% i.i.d. loss (from L1)", kL2, kL1},
        {"L3", "+ flood handler (from L1)", kL3, kL1},
        {"L4", "+ obs metrics", kL4, kL3},
        {"L5", "+ obs trace", kL5, kL4},
        {"L6", "sharded engine S=1 (from L3)", kL6s1, kL3},
        {"L6", "sharded engine S=4 (from S=1)", kL6s4, kL6s1},
    };
    out_ << "\nlayer ladder over flood_1m (" << f.events_processed
         << " events, median of " << kLadderReps << " runs per rung)\n"
         << "  rung  ns/event  delta    adds\n";
    for (const Row& row : rows) {
      out_ << "  " << std::setw(4) << row.name << std::setw(10)
           << std::setprecision(4) << at(row.rung) << std::setw(9)
           << at(row.rung) - at(row.below) << "    " << row.adds << '\n';
    }
    out_ << "  e2e " << std::setw(10) << at(kE2e)
         << "            flood_1m op (end-to-end row)\n"
         << "  check: L0 + dL1 + dL3 = " << sum << " ns/event vs e2e "
         << at(kE2e) << ", residual " << residual * 100 << "% (tolerance "
         << kLadderTolerance * 100 << "%) " << (ladder_ok ? "OK" : "MISSED")
         << "\n\n";

    const auto [distinct_ns, callback_ns] = distinct_time_rungs();
    add("event_sim.ns_per_event.same_time", at(kL0), "ns");
    add("event_sim.ns_per_event.distinct_time", distinct_ns, "ns");
    add("event_sim.ns_per_callback", callback_ns, "ns");
    const double per_send = events / static_cast<double>(sends);
    add("network.ns_per_send", at(kL1) * per_send, "ns");
    add("network.chaos_ns_per_send", at(kL2) * per_send, "ns");
    add("network.msgs_per_s", 1e9 / (at(kL1) * per_send), "1/s");
    add("flood.ns_per_event", at(kL3), "ns");
    add("flood.handler_ns_per_event", at(kL3) - at(kL1), "ns");
    add("flood.events", events, "count");
    add("flood.msgs", static_cast<double>(f.messages_sent), "count");
    add("flood.useful_ratio",
        static_cast<double>(f.alive_nodes - 1) / f.net.delivered, "ratio");
    add("obs.metrics_overhead_ratio", at(kL4) / at(kL3), "ratio");
    add("obs.trace_overhead_ratio", at(kL5) / at(kL4), "ratio");
    add("shard_sim.s1_ns_per_event", at(kL6s1), "ns");
    add("shard_sim.speedup_s4", at(kL6s1) / at(kL6s4), "ratio");
    add("ladder.L1.ns_per_event", at(kL1), "ns");
    add("ladder.L1.delta_ns", at(kL1) - at(kL0), "ns");
    add("ladder.L2.ns_per_event", at(kL2), "ns");
    add("ladder.L2.delta_ns", at(kL2) - at(kL1), "ns");
    add("ladder.L4.ns_per_event", at(kL4), "ns");
    add("ladder.L4.delta_ns", at(kL4) - at(kL3), "ns");
    add("ladder.L5.ns_per_event", at(kL5), "ns");
    add("ladder.L5.delta_ns", at(kL5) - at(kL4), "ns");
    add("ladder.L6_s1.delta_ns", at(kL6s1) - at(kL3), "ns");
    add("ladder.L6_s4.ns_per_event", at(kL6s4), "ns");
    add("ladder.L6_s4.delta_ns", at(kL6s4) - at(kL6s1), "ns");
    add("ladder.e2e.ns_per_event", at(kE2e), "ns");
    add("ladder.residual_ratio", residual, "ratio");
  }

  void shards() {
    Tracer::Scope probe(tracer_, "probe.shard_partition");
    const lhg::ImplicitLhg& view = *view_;
    const fl::ShardedSimulator sim(view.num_nodes(), kShards);
    std::int64_t arcs = 0;
    std::int64_t cross = 0;
    for (NodeId v = 0; v < view.num_nodes(); ++v) {
      for (std::int32_t i = 0; i < view.degree(v); ++i) {
        ++arcs;
        cross += sim.shard_of(v) != sim.shard_of(view.neighbor(v, i)) ? 1 : 0;
      }
    }
    std::vector<std::int32_t> lo(static_cast<std::size_t>(pattern_.levels),
                                 kShards);
    std::vector<std::int32_t> hi(static_cast<std::size_t>(pattern_.levels), -1);
    for (NodeId v = 0; v < view.num_nodes(); ++v) {
      const auto d = static_cast<std::size_t>(
          pattern_.dist[static_cast<std::size_t>(v)]);
      lo[d] = std::min(lo[d], sim.shard_of(v));
      hi[d] = std::max(hi[d], sim.shard_of(v));
    }
    std::int64_t single = 0;
    for (std::size_t d = 0; d < lo.size(); ++d) single += lo[d] == hi[d] ? 1 : 0;
    add("shard_net.cross_arc_fraction", static_cast<double>(cross) / arcs,
        "ratio");
    add("shard_sim.single_shard_levels", static_cast<double>(single),
        "count");
    out_ << "shard partition at S=" << kShards << ": "
         << static_cast<double>(cross) / arcs << " of " << arcs
         << " arcs cross shards; " << single << " of " << pattern_.levels
         << " BFS levels lie in one shard\n";
  }

  void repair() {
    Tracer::Scope probe(tracer_, "probe.repair");
    const Graph g = lhg::build(kRepairN, kK);
    const std::int64_t lanes = lhg::core::global_thread_count();
    trials_ = repair_trials(g, seed_, kRepairBatches * lanes);
    struct Trial {
      std::int64_t wall_ns = 0;
      fl::RepairResult r;
    };
    const auto concat = [](auto acc, auto part) {
      for (auto& x : part) acc.push_back(std::move(x));
      return acc;
    };
    const fl::TrialRunner runner;  // each trial carries its own seeds
    std::vector<Trial> done;
    std::int64_t batch_ns = 0;
    for (int b = 0; b < kRepairBatches; ++b) {
      Tracer::Scope batch(tracer_, "batch", b * lanes);
      const std::int32_t parent = batch.id();
      const std::int64_t t0 = now_ns();
      std::vector<Trial> part = runner.run<std::vector<Trial>>(
          lanes, {},
          [&](std::int64_t t, Rng&) {
            const std::int64_t id = b * lanes + t;
            const RepairTrial& trial = trials_[static_cast<std::size_t>(id)];
            Tracer::Scope s(tracer_, "flooding.run_repair", id, parent);
            const std::int64_t start = now_ns();
            fl::RepairResult r = fl::run_repair(g, trial.cfg, trial.plan);
            std::vector<Trial> one(1);
            one[0].wall_ns = now_ns() - start;
            one[0].r = std::move(r);
            return one;
          },
          concat);
      batch_ns += now_ns() - t0;
      done = concat(std::move(done), std::move(part));
    }
    // The healed graphs are checked again, one per lane as in the
    // trials, so the connectivity layer is timed under the same load.
    std::vector<std::pair<std::int64_t, bool>> kconn;
    {
      Tracer::Scope batch(tracer_, "batch.kconn");
      const std::int32_t parent = batch.id();
      kconn = runner.run<std::vector<std::pair<std::int64_t, bool>>>(
          static_cast<std::int64_t>(done.size()), {},
          [&](std::int64_t t, Rng&) {
            Tracer::Scope s(tracer_, "core.is_k_vertex_connected", t, parent);
            const std::int64_t start = now_ns();
            const bool ok = lhg::core::is_k_vertex_connected(
                done[static_cast<std::size_t>(t)].r.healed, kK);
            return std::vector<std::pair<std::int64_t, bool>>{
                {now_ns() - start, ok}};
          },
          concat);
    }
    std::vector<double> trial_ms, kconn_ms, rest_ms, beats, views, shakes;
    double busy_ns = 0;
    for (std::size_t i = 0; i < done.size(); ++i) {
      const fl::RepairResult& r = done[i].r;
      check(r.repaired && r.k_connected && kconn[i].second,
            "repair trial ends repaired and k-connected");
      busy_ns += static_cast<double>(done[i].wall_ns);
      trial_ms.push_back(ms(done[i].wall_ns));
      kconn_ms.push_back(ms(kconn[i].first));
      rest_ms.push_back(ms(done[i].wall_ns - kconn[i].first));
      beats.push_back(static_cast<double>(r.heartbeats_sent));
      views.push_back(static_cast<double>(r.view_change_messages));
      shakes.push_back(static_cast<double>(r.handshake_messages));
    }
    const double busy_ratio =
        busy_ns / (static_cast<double>(lanes) * static_cast<double>(batch_ns));
    add("core.kconn_ms", median(kconn_ms), "ms");
    add("core.parallel.lane_busy_ratio", busy_ratio, "ratio");
    add("repair.non_kconn_ms", median(rest_ms), "ms");
    add("repair.heartbeats", median(beats), "count");
    add("repair.view_change_msgs", median(views), "count");
    add("repair.handshake_msgs", median(shakes), "count");
    out_ << "repair(2048,4, f=3): " << done.size() << " trials on " << lanes
         << " lanes, trial " << median(trial_ms) << " ms of which kconn "
         << median(kconn_ms) << " ms, lane busy " << busy_ratio << '\n';
  }

  void membership() {
    Tracer::Scope probe(tracer_, "probe.membership");
    std::vector<double> ctor, leave;
    for (int i = 0; i < kCtorReps; ++i) {
      const std::int64_t t0 = now_ns();
      std::optional<lhg::membership::IncrementalOverlay> overlay;
      {
        Tracer::Scope s(tracer_, "membership.IncrementalOverlay");
        overlay.emplace(kRepairN, kK);
      }
      const std::int64_t t1 = now_ns();
      for (const fl::NodeCrash& c : trials_.front().plan.crashes) {
        Tracer::Scope s(tracer_, "membership.leave");
        overlay->leave(c.node);
      }
      const std::int64_t t2 = now_ns();
      ctor.push_back(ms(t1 - t0));
      leave.push_back(ms(t2 - t1));
      check(overlay->size() ==
                kRepairN -
                    static_cast<NodeId>(trials_.front().plan.crashes.size()),
            "incremental overlay leaves");
    }
    add("membership.incremental_ctor_ms", median(ctor), "ms");
    add("membership.leave_ms", median(leave), "ms");
    out_ << "membership: IncrementalOverlay(2048,4) " << median(ctor)
         << " ms, 3 leaves " << median(leave) << " ms\n";
  }

  std::uint64_t seed_;
  Tracer& tracer_;
  std::ostream& out_;
  LayerReport report_;

  std::optional<lhg::ImplicitLhg> view_;
  std::optional<Graph> graph64k_;
  FloodPattern pattern_;
  std::int64_t broadcast_events_ = 0;
  std::vector<RepairTrial> trials_;
};

}  // namespace

LayerReport run_layer_probes(std::uint64_t seed, Tracer& tracer,
                             std::ostream& out) {
  return Probes(seed, tracer, out).run();
}

}  // namespace perfbench
