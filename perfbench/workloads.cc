#include "workloads.h"

#include <optional>
#include <utility>

#include "core/bfs_generic.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "flooding/flood_generic.h"
#include "flooding/trial_runner.h"
#include "lhg/implicit.h"
#include "lhg/lhg.h"

namespace perfbench {

namespace fl = lhg::flooding;
using lhg::core::Graph;
using lhg::core::Rng;

fl::FloodConfig flood_config(std::uint64_t seed, std::int32_t shards) {
  fl::FloodConfig cfg;
  cfg.source = 0;
  cfg.latency = fl::LatencySpec::fixed(1.0);
  cfg.seed = seed;  // no chaos and fixed latency: the flood draws nothing
  cfg.shards = shards;
  return cfg;
}

fl::ReliableBroadcastConfig lossy_config(std::uint64_t seed, std::int64_t op) {
  fl::ReliableBroadcastConfig cfg;
  cfg.source = 0;
  cfg.latency = fl::LatencySpec::per_send(1.0, 0.5);
  cfg.chaos = fl::ChaosSpec::iid(0.10);
  cfg.seed = Rng::stream(seed, static_cast<std::uint64_t>(op))();
  return cfg;
}

std::vector<RepairTrial> repair_trials(const Graph& g, std::uint64_t seed,
                                       std::int64_t count) {
  std::vector<RepairTrial> trials;
  trials.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(i));
    RepairTrial t;
    t.plan = fl::random_crashes(g, kK - 1, /*protect=*/0, rng,
                                kRepairCrashTime);
    t.cfg.k = kK;
    t.cfg.seed = rng();
    trials.push_back(std::move(t));
  }
  return trials;
}

namespace {

/// Times `fn` and records it as one op of a single-op batch.
template <typename Fn>
std::pair<Batch, std::invoke_result_t<Fn>> timed_op(Tracer& tracer,
                                                    const char* span,
                                                    Fn&& fn) {
  Tracer::Scope scope(tracer, span);
  const std::int64_t t0 = now_ns();
  auto result = fn();
  const std::int64_t wall = now_ns() - t0;
  Batch batch;
  batch.ops.push_back({wall, false});
  batch.wall_ns = wall;
  return {std::move(batch), std::move(result)};
}

/// Runs one op per TrialRunner lane, op ids `op`, `op` + 1, ...; `fn(id)`
/// runs and checks op `id` and returns it as an OpResult.  Each op gets
/// a span under the batch's span.
template <typename Fn>
Batch lane_batch(Tracer& tracer, std::int64_t op, const char* span, Fn&& fn) {
  const std::int64_t lanes = lhg::core::global_thread_count();
  Tracer::Scope scope(tracer, "batch", op);
  const std::int32_t parent = scope.id();
  const fl::TrialRunner runner;  // each op carries its own seeds
  Batch batch;
  const std::int64_t t0 = now_ns();
  batch.ops = runner.run<std::vector<OpResult>>(
      lanes, {},
      [&](std::int64_t t, Rng&) {
        const std::int64_t id = op + t;
        Tracer::Scope ts(tracer, span, id, parent);
        return std::vector<OpResult>{fn(id)};
      },
      [](std::vector<OpResult> acc, const std::vector<OpResult>& part) {
        acc.insert(acc.end(), part.begin(), part.end());
        return acc;
      });
  batch.wall_ns = now_ns() - t0;
  return batch;
}

}  // namespace

bool same_flood(const fl::DisseminationResult& a,
                const fl::DisseminationResult& b) {
  const fl::NetworkStats& x = a.net;
  const fl::NetworkStats& y = b.net;
  return a.delivery_time == b.delivery_time &&
         a.delivery_hops == b.delivery_hops &&
         a.messages_sent == b.messages_sent &&
         a.events_processed == b.events_processed &&
         a.completion_time == b.completion_time &&
         a.completion_hops == b.completion_hops &&
         a.alive_nodes == b.alive_nodes &&
         a.delivered_alive == b.delivered_alive && x.sent == y.sent &&
         x.delivered == y.delivered && x.lost == y.lost &&
         x.duplicated == y.duplicated &&
         x.blocked_sender_crashed == y.blocked_sender_crashed &&
         x.blocked_link_down == y.blocked_link_down &&
         x.blocked_partition == y.blocked_partition &&
         x.dropped_receiver_crashed == y.dropped_receiver_crashed &&
         x.dropped_link_down == y.dropped_link_down &&
         x.dropped_partition == y.dropped_partition;
}

namespace {

// flood_1m: the paper's headline operation at the repo's largest scale.
// Checked against BFS distances from the source.
class Flood1m final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer& tracer) override {
    view_.reset();
    ref_hops_.clear();
    {
      Tracer::Scope s(tracer, "lhg.ImplicitLhg");
      view_.emplace(kFloodN, kK);
    }
    {
      Tracer::Scope s(tracer, "core.generic_bfs_distances");
      ref_hops_ = lhg::core::generic_bfs_distances(*view_, 0);
    }
    cfg_ = flood_config(seed, 1);
    run_batch(tracer, -1);
  }

  Batch run_batch(Tracer& tracer, std::int64_t op) override {
    Tracer::Scope scope(tracer, "op", op);
    auto [batch, r] =
        timed_op(tracer, "flooding.flood", [&] { return fl::flood(*view_, cfg_); });
    Tracer::Scope check(tracer, "check");
    batch.ops[0].ok = r.all_alive_delivered() &&
                      r.alive_nodes == view_->num_nodes() &&
                      r.delivery_hops == ref_hops_;
    return batch;
  }

 private:
  std::optional<lhg::ImplicitLhg> view_;
  std::vector<std::int32_t> ref_hops_;
  fl::FloodConfig cfg_;
};

// flood_1m_s4: the same flood on the sharded engine at S = 4, checked
// bit-for-bit against an S = 1 reference built during set-up.
class Flood1mS4 final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer& tracer) override {
    view_.reset();
    ref_.reset();
    {
      Tracer::Scope s(tracer, "lhg.ImplicitLhg");
      view_.emplace(kFloodN, kK);
    }
    {
      Tracer::Scope s(tracer, "flooding.flood");
      ref_ = fl::flood(*view_, flood_config(seed, 1));
    }
    cfg_ = flood_config(seed, 4);
    run_batch(tracer, -1);
  }

  Batch run_batch(Tracer& tracer, std::int64_t op) override {
    Tracer::Scope scope(tracer, "op", op);
    auto [batch, r] = timed_op(tracer, "flooding.flood.s4",
                               [&] { return fl::flood(*view_, cfg_); });
    Tracer::Scope check(tracer, "check");
    batch.ops[0].ok = ref_->all_alive_delivered() && same_flood(*ref_, r);
    return batch;
  }

 private:
  std::optional<lhg::ImplicitLhg> view_;
  std::optional<fl::DisseminationResult> ref_;
  fl::FloodConfig cfg_;
};

// reliable_lossy_64k: flooding on ACK/retransmit links over a 10%-lossy,
// jittered channel, one call per TrialRunner lane.  Checked for full
// delivery and the NetworkStats accounting identity.  Ops cycle through
// seed-derived channel draws: the cost of one call depends on its loss
// pattern, and a run's median over many patterns does not hinge on one
// of them.  The calls run on all lanes because a serial call's speed
// follows that of one core, which on a shared host drifts by a fifth
// from minute to minute.
class ReliableLossy64k final : public Workload {
 public:
  static constexpr std::int64_t kConfigs = 64;

  void setup(std::uint64_t seed, Tracer& tracer) override {
    graph_.reset();
    cfgs_.clear();
    {
      Tracer::Scope s(tracer, "lhg.build");
      graph_.emplace(lhg::build(kLossyN, kK));
    }
    for (std::int64_t i = 0; i < kConfigs; ++i) {
      cfgs_.push_back(lossy_config(seed, i));
    }
    run_batch(tracer, 0);
  }

  Batch run_batch(Tracer& tracer, std::int64_t op) override {
    return lane_batch(
        tracer, op, "flooding.reliable_broadcast", [&](std::int64_t id) {
          const fl::ReliableBroadcastConfig& cfg =
              cfgs_[static_cast<std::size_t>(id % kConfigs)];
          const std::int64_t start = now_ns();
          const fl::ReliableBroadcastResult r =
              fl::reliable_broadcast(*graph_, cfg);
          const std::int64_t wall = now_ns() - start;
          return OpResult{wall, r.delivery_ratio() == 1.0 &&
                                    r.net.sent + r.net.duplicated ==
                                        r.net.delivered + r.net.undelivered()};
        });
  }

 private:
  std::optional<Graph> graph_;
  std::vector<fl::ReliableBroadcastConfig> cfgs_;
};

// repair_2k: heartbeat detection, view change and rewiring after k-1
// crashes, one trial per TrialRunner lane.  Each trial must end
// repaired and k-connected.
class Repair2k final : public Workload {
 public:
  // Distinct crash patterns per run; ops cycle through them.
  static constexpr std::int64_t kTrials = 256;

  void setup(std::uint64_t seed, Tracer& tracer) override {
    graph_.reset();
    trials_.clear();
    {
      Tracer::Scope s(tracer, "lhg.build");
      graph_.emplace(lhg::build(kRepairN, kK));
    }
    trials_ = repair_trials(*graph_, seed, kTrials);
    run_batch(tracer, 0);
  }

  Batch run_batch(Tracer& tracer, std::int64_t op) override {
    return lane_batch(tracer, op, "flooding.run_repair", [&](std::int64_t id) {
      const RepairTrial& trial =
          trials_[static_cast<std::size_t>(id % kTrials)];
      const std::int64_t start = now_ns();
      const fl::RepairResult r = fl::run_repair(*graph_, trial.cfg, trial.plan);
      const std::int64_t wall = now_ns() - start;
      return OpResult{wall, r.repaired && r.k_connected};
    });
  }

 private:
  std::optional<Graph> graph_;
  std::vector<RepairTrial> trials_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "flood_1m") return std::make_unique<Flood1m>();
  if (name == "flood_1m_s4") return std::make_unique<Flood1mS4>();
  if (name == "reliable_lossy_64k") return std::make_unique<ReliableLossy64k>();
  if (name == "repair_2k") return std::make_unique<Repair2k>();
  return nullptr;
}

}  // namespace perfbench
