// Whole-result golden pins for every event-driven dissemination entry
// point.  Each case runs one protocol at a fixed seed under faults and
// folds its entire result — delivery times (bit patterns), hop counts,
// every NetworkStats field, every scalar result field and the metrics
// snapshot — into one 64-bit FNV-1a hash.  A refactor that keeps the
// protocols' behavior keeps every hash; any change to a draw order, an
// event order or a counter shows up here first.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "flooding/flood_generic.h"
#include "flooding/heartbeat.h"
#include "flooding/protocols.h"
#include "flooding/reliable_broadcast.h"
#include "flooding/repair.h"
#include "lhg/implicit.h"
#include "lhg/lhg.h"

namespace lhg::flooding {
namespace {

using core::NodeId;

class ResultHash {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ = (h_ ^ ((word >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(std::int32_t v) { add(static_cast<std::int64_t>(v)); }
  void add(bool v) { add(static_cast<std::uint64_t>(v ? 1 : 0)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (char c : s) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }

  void add(const NetworkStats& s) {
    for (std::int64_t v :
         {s.sent, s.delivered, s.lost, s.duplicated, s.blocked_sender_crashed,
          s.blocked_link_down, s.blocked_partition, s.dropped_receiver_crashed,
          s.dropped_link_down, s.dropped_partition}) {
      add(v);
    }
  }
  void add(const obs::Snapshot& snap) {
    add(static_cast<std::uint64_t>(snap.samples.size()));
    for (const obs::MetricSample& m : snap.samples) {
      add(m.name);
      add(static_cast<std::uint64_t>(m.kind));
      add(m.value);
      add(m.count);
      add(m.sum);
      for (std::int64_t b : m.buckets) add(b);
    }
  }
  void add(const DisseminationResult& r) {
    add(static_cast<std::uint64_t>(r.delivery_time.size()));
    for (double t : r.delivery_time) add(t);
    for (std::int32_t h : r.delivery_hops) add(h);
    add(r.messages_sent);
    add(r.events_processed);
    add(r.net);
    add(r.alive_nodes);
    add(r.delivered_alive);
    add(r.completion_time);
    add(r.completion_hops);
    add(r.metrics);
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

template <typename Result>
std::uint64_t hash_of(const Result& r) {
  ResultHash h;
  h.add(r);
  return h.value();
}

constexpr obs::ObsConfig kMetrics{.metrics = true};

TEST(ResultPins, ProbabilisticFloodPerSendLatencyWithCrashes) {
  const auto g = lhg::build(300, 4);
  FailurePlan plan;
  plan.crashes = {{12, 0.0}, {77, 1.0}, {40, 2.5}};
  const auto r = probabilistic_flood(
      g,
      {.source = 0,
       .forward_probability = 0.6,
       .latency = LatencySpec::per_send(1.0, 0.5),
       .seed = 7,
       .obs = kMetrics},
      plan);
  EXPECT_LT(r.delivered_alive, r.alive_nodes);  // the coin lost some nodes
  EXPECT_EQ(hash_of(r), 0x2f34ac2ef27e64a4ULL);
}

TEST(ResultPins, SpanningTreeMulticastWithOneCrash) {
  const auto g = lhg::build(200, 3);
  FailurePlan plan;
  plan.crashes = {{9, 1.5}};
  const auto r = spanning_tree_multicast(
      g,
      {.source = 3,
       .latency = LatencySpec::per_link(1.0, 0.7),
       .seed = 3,
       .obs = kMetrics},
      plan);
  EXPECT_LT(r.delivered_alive, r.alive_nodes);  // the crash cut a subtree
  EXPECT_EQ(hash_of(r), 0x037dc7cbf0a20659ULL);
}

TEST(ResultPins, FloodOnGraphWithIidLossAndPerLinkLatency) {
  const auto g = lhg::build(256, 4);
  FloodConfig cfg;
  cfg.source = 5;
  cfg.latency = LatencySpec::per_link(1.0, 0.8);
  cfg.seed = 11;
  cfg.chaos = ChaosSpec::iid(0.1);
  cfg.obs = kMetrics;
  const auto r = flood(g, cfg);
  EXPECT_GT(r.net.lost, 0);
  EXPECT_EQ(hash_of(r), 0xb0c21f803c8238c5ULL);
}

TEST(ResultPins, ShardedFloodFourShardsWithChaos) {
  const auto g = lhg::build(512, 4);
  FloodConfig cfg;
  cfg.source = 0;
  cfg.latency = LatencySpec::per_link(1.0, 0.5);
  cfg.seed = 13;
  cfg.chaos.loss = 0.05;
  cfg.chaos.duplicate = 0.05;
  cfg.chaos.reorder = 0.1;
  cfg.chaos.reorder_jitter = 0.5;
  cfg.obs = kMetrics;
  cfg.shards = 4;
  FailurePlan plan;
  plan.crashes = {{100, 2.0}};
  const auto r = sharded_flood(g, cfg, plan);
  EXPECT_GT(r.net.lost, 0);
  EXPECT_GT(r.net.duplicated, 0);
  EXPECT_EQ(hash_of(r), 0xe8c5121c8edf09b4ULL);
}

TEST(ResultPins, ShardedFloodImplicitFourShardsWithChaos) {
  const ImplicitLhg view(4096, 4);
  FloodConfig cfg;
  cfg.source = 3;
  cfg.latency = LatencySpec::per_link(1.0, 0.5);
  cfg.seed = 29;
  cfg.chaos = ChaosSpec::bursty(0.08, 0.3, 0.45);
  cfg.chaos.duplicate = 0.05;
  cfg.chaos.reorder = 0.1;
  cfg.chaos.reorder_jitter = 0.7;
  cfg.obs = kMetrics;
  cfg.shards = 4;
  FailurePlan plan;
  plan.crashes = {{700, 1.5}, {2900, 3.0}};
  const auto r = sharded_flood(view, cfg, plan);
  EXPECT_GT(r.net.lost, 0);
  EXPECT_GT(r.net.duplicated, 0);
  EXPECT_EQ(hash_of(r), 0x10e1df904d1b9969ULL);
}

TEST(ResultPins, ReliableBroadcastTenPercentLoss) {
  const auto g = lhg::build(200, 4);
  ReliableBroadcastConfig cfg;
  cfg.source = 1;
  cfg.latency = LatencySpec::per_send(1.0, 0.5);
  cfg.seed = 5;
  cfg.chaos = ChaosSpec::iid(0.1);
  cfg.obs = kMetrics;
  const auto r = reliable_broadcast(g, cfg);
  EXPECT_GT(r.retransmissions, 0);
  ResultHash h;
  h.add(static_cast<const DisseminationResult&>(r));
  h.add(r.retransmissions);
  h.add(r.acks_sent);
  h.add(r.messages_lost);
  h.add(r.duplicates_suppressed);
  h.add(r.window_overflows);
  EXPECT_EQ(h.value(), 0x982a5d4fa443b47bULL);
}

TEST(ResultPins, HeartbeatLossyWithTwoCrashes) {
  const auto g = lhg::build(64, 3);
  FailurePlan plan;
  plan.crashes = {{3, 10.0}, {20, 15.5}};
  const auto r = run_heartbeat(
      g,
      {.timeout = 3.5,
       .horizon = 40.0,
       .latency = LatencySpec::per_send(0.1, 0.2),
       .loss_probability = 0.1,
       .seed = 17,
       .obs = kMetrics},
      plan);
  EXPECT_EQ(r.detections.size(), 2u);
  EXPECT_GT(r.false_suspicions, 0);
  ResultHash h;
  h.add(r.heartbeats_sent);
  h.add(static_cast<std::uint64_t>(r.detections.size()));
  for (const CrashDetection& d : r.detections) {
    h.add(d.node);
    h.add(d.crash_time);
    h.add(d.detection_latency);
  }
  h.add(r.false_suspicions);
  h.add(r.metrics);
  EXPECT_EQ(h.value(), 0x57b5666bc0fd1f4cULL);
}

TEST(ResultPins, RepairThreeCrashesOneRecovery) {
  const auto g = lhg::build(40, 3);
  RepairConfig cfg;
  cfg.k = 3;
  cfg.horizon = 40.0;
  cfg.seed = 19;
  cfg.chaos = ChaosSpec::iid(0.05);
  cfg.underlay_loss = 0.1;
  cfg.obs = kMetrics;
  FailurePlan plan;
  plan.crashes = {{4, 2.0}, {17, 3.0}, {29, 5.0}};
  plan.recoveries = {{17, 12.0}};
  const auto r = run_repair(g, cfg, plan);
  EXPECT_TRUE(r.repaired);
  EXPECT_TRUE(r.k_connected);
  EXPECT_GT(r.edges_needed, 0);
  ResultHash h;
  h.add(r.repaired);
  h.add(r.k_connected);
  h.add(r.detection_time);
  h.add(r.reconnect_time);
  h.add(r.survivors);
  h.add(r.edges_needed);
  h.add(r.edges_reused);
  h.add(r.edges_established);
  h.add(r.heartbeats_sent);
  h.add(r.view_change_messages);
  h.add(r.handshake_messages);
  h.add(r.false_suspicions);
  h.add(r.self_rebuttals);
  h.add(r.lingering_false_obituaries);
  h.add(r.target_churn);
  h.add(r.window_overflows);
  h.add(r.net);
  h.add(r.metrics);
  h.add(r.healed.num_nodes());
  for (const core::Edge& e : r.healed.edges()) {
    h.add(e.u);
    h.add(e.v);
  }
  for (NodeId id : r.survivor_ids) h.add(id);
  EXPECT_EQ(h.value(), 0x856c8bdf1f615a43ULL);
}

}  // namespace
}  // namespace lhg::flooding
