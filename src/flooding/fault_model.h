// The fault model and channel shared by both networks: BasicNetwork
// (network.h, single-queue Simulator) and ShardedNetwork (shard_net.h,
// ShardedSimulator).  Everything DESIGN.md §11 specifies lives here
// once: spec validation and the kUniformPerLink latency table; crash,
// link and partition state with the epoch-guarded windowed and timed
// mutators; the send-time and delivery-time admission checks with
// their NetworkStats and obs accounting; and the chaos draw sequence.
//
// Semantics.  A message sent at time t arrives at t + latency(link)
// unless the channel drops it, or, at the *delivery* instant, the
// receiver is crashed, the link is down, or an active partition
// separates the endpoints.  A sender crash only blocks *future* sends:
// under fail-stop, copies already in flight when the sender dies still
// arrive.  Crash-recovery is symmetric: recover_* clears the crash
// flag, so copies that would arrive during the down window are lost
// while later arrivals (and later sends) succeed.
//
// Draw order per transmission (the determinism contract — a disabled
// knob consumes no draws, so chaos-free runs reproduce the golden
// traces bit for bit):
//   1. Gilbert–Elliott state transition, if enabled (one draw);
//   2. the loss draw (i.i.d. probability, or the GE state's);
//   3. the duplication draw, if duplication is enabled;
//   4. per scheduled copy: the latency sample (kUniformPerSend only),
//      then the reorder draw and, when it hits, the extra-delay draw.
// The draws come from the generator of the transmission's *channel*,
// which is also the unit that owns one GE chain.  BasicNetwork's
// channels are its links, all drawing from the one shared generator;
// ShardedNetwork's channels are directed arcs with one stream each.
//
// FaultModel<Topology, Net> is a CRTP base; the network `Net` supplies
// the engine-facing hooks:
//   schedule_serial(t, fn)   run fn() at t in a serial phase;
//   check_serial_phase(what) contract that shared state may change now;
//   trace_fault(kind, node)  obs tap for crash / recover events;
//   channel_rng(channel)     generator of one channel's draws.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/graph.h"
#include "core/rng.h"
#include "obs/obs.h"

namespace lhg::flooding {

/// How link latencies are produced.
struct LatencySpec {
  enum class Kind {
    kFixed,           ///< every message takes `base`
    kUniformPerLink,  ///< each link samples once in [base, base+jitter]
    kUniformPerSend,  ///< each message samples in [base, base+jitter]
  };
  Kind kind = Kind::kFixed;
  double base = 1.0;
  double jitter = 0.0;

  static LatencySpec fixed(double value) { return {Kind::kFixed, value, 0.0}; }
  static LatencySpec per_link(double base, double jitter) {
    return {Kind::kUniformPerLink, base, jitter};
  }
  static LatencySpec per_send(double base, double jitter) {
    return {Kind::kUniformPerSend, base, jitter};
  }
};

/// Adversarial channel model, applied per transmission.  All knobs
/// default off, in which case the network consumes no Rng draws on the
/// send path (the golden-trace determinism contract).
struct ChaosSpec {
  /// I.i.d. per-transmission drop probability in [0, 1).  Ignored when
  /// the Gilbert–Elliott channel is enabled.
  double loss = 0.0;

  /// Probability that a transmission is duplicated (two independent
  /// copies are delivered; both count the same send).
  double duplicate = 0.0;

  /// Probability that a delivered copy picks up extra delay, uniform in
  /// [0, reorder_jitter] — out-of-order delivery relative to FIFO links.
  double reorder = 0.0;
  double reorder_jitter = 0.0;

  /// Gilbert–Elliott bursty channel: each channel is a two-state Markov
  /// chain advanced once per transmission; copies drop only in the bad
  /// state.  Models correlated (bursty) loss.
  bool gilbert_elliott = false;
  double ge_good_to_bad = 0.05;  ///< P(good -> bad) per transmission
  double ge_bad_to_good = 0.25;  ///< P(bad -> good) per transmission
  double ge_loss_bad = 0.5;      ///< drop probability in the bad state

  static ChaosSpec none() { return {}; }
  static ChaosSpec iid(double p) {
    ChaosSpec c;
    c.loss = p;
    return c;
  }
  static ChaosSpec bursty(double good_to_bad, double bad_to_good,
                          double loss_bad) {
    ChaosSpec c;
    c.gilbert_elliott = true;
    c.ge_good_to_bad = good_to_bad;
    c.ge_bad_to_good = bad_to_good;
    c.ge_loss_bad = loss_bad;
    return c;
  }

  bool lossy() const { return loss > 0.0 || gilbert_elliott; }
  bool enabled() const {
    return lossy() || duplicate > 0.0 || reorder > 0.0;
  }
};

/// Robustness counters.  `sent` counts transmission attempts accepted by
/// send()/send_link(); every accepted transmission ends in exactly one
/// of {delivered, lost, dropped_*} per scheduled copy, and `duplicated`
/// counts the extra copies on top.
struct NetworkStats {
  std::int64_t sent = 0;        ///< accepted transmissions
  std::int64_t delivered = 0;   ///< copies handed to the receive handler
  std::int64_t lost = 0;        ///< copies dropped by the loss model
  std::int64_t duplicated = 0;  ///< extra copies injected by duplication

  std::int64_t blocked_sender_crashed = 0;  ///< sends refused: dead sender
  std::int64_t blocked_link_down = 0;       ///< sends refused: link down
  std::int64_t blocked_partition = 0;       ///< sends refused: cut crossing

  std::int64_t dropped_receiver_crashed = 0;  ///< in flight, receiver dead
  std::int64_t dropped_link_down = 0;         ///< in flight, link cut
  std::int64_t dropped_partition = 0;         ///< in flight, cut activated

  /// In-flight copies that never reached the handler, any cause.
  std::int64_t undelivered() const {
    return lost + dropped_receiver_crashed + dropped_link_down +
           dropped_partition;
  }
};

namespace detail {

inline void check_probability(double p, const char* what) {
  LHG_CHECK(p >= 0.0 && p < 1.0, "Network: {} probability {} must be in [0, 1)",
            what, p);
}

}  // namespace detail

template <typename Topology, typename Net>
class FaultModel {
 public:
  // Scheduled mutations and in-flight deliveries hold `this`.
  FaultModel(const FaultModel&) = delete;
  FaultModel& operator=(const FaultModel&) = delete;

  const Topology& topology() const { return *topology_; }

  /// Crashes `node` immediately (fail-stop; in-flight messages *from* it
  /// sent before the crash still arrive, later sends are dropped).
  /// Every call — including one on an already-crashed node — advances
  /// the node's crash epoch, so pending windowed recoveries for earlier
  /// crashes of the node are invalidated (see `crash_windowed`).
  void crash_now(core::NodeId node) {
    LHG_CHECK_RANGE(node, topology_->num_nodes());
    net().check_serial_phase("crash_now");
    bump_crash_epoch(node);
    if (crashed_[static_cast<std::size_t>(node)] == 0) {
      crashed_[static_cast<std::size_t>(node)] = 1;
      --alive_count_;
      net().trace_fault(obs::TraceKind::kCrash, node);
    }
  }

  /// Schedules a crash at absolute virtual time `at`.
  void crash_at(core::NodeId node, double at) {
    net().schedule_serial(at, [this, node] { crash_now(node); });
  }

  /// Crash-recovery model: the node comes back with no protocol state
  /// (state restoration is the protocol's problem, not the network's).
  /// Copies that arrived during the down window stay lost; arrivals and
  /// sends after the recovery instant succeed.  Idempotent.
  void recover_now(core::NodeId node) {
    LHG_CHECK_RANGE(node, topology_->num_nodes());
    net().check_serial_phase("recover_now");
    if (crashed_[static_cast<std::size_t>(node)] != 0) {
      crashed_[static_cast<std::size_t>(node)] = 0;
      ++alive_count_;
      net().trace_fault(obs::TraceKind::kRecover, node);
    }
  }
  void recover_at(core::NodeId node, double at) {
    net().schedule_serial(at, [this, node] { recover_now(node); });
  }

  /// Overlap-safe crash/recovery window.  Crashes `node` at `down`
  /// (immediately when down <= 0) and returns a window token; the
  /// matching `recover_windowed(node, up, token)` recovers the node at
  /// `up` only if this window's crash is still the node's most recent
  /// one.  A later crash — from another window or a direct
  /// `crash_now` — advances the epoch, so the stale recovery becomes a
  /// no-op instead of reviving a node someone else just took down.
  std::size_t crash_windowed(core::NodeId node, double down) {
    const std::size_t w = new_window();
    if (down <= 0.0) {
      crash_now(node);
      window_epoch_[w] = crash_epoch_of(node);
    } else {
      net().schedule_serial(down, [this, node, w] {
        crash_now(node);
        window_epoch_[w] = crash_epoch_of(node);
      });
    }
    return w;
  }
  void recover_windowed(core::NodeId node, double up, std::size_t window) {
    LHG_CHECK(window < window_epoch_.size(),
              "recover_windowed: bad window token {}", window);
    net().schedule_serial(up, [this, node, w = window] {
      if (crash_epoch_of(node) == window_epoch_[w]) recover_now(node);
    });
  }

  /// Fails the link {u, v} immediately / at time `at`.  Messages in
  /// flight on the link at failure time are lost.  Like `crash_now`,
  /// every call advances the link's failure epoch, invalidating pending
  /// windowed restores from earlier failure windows.
  void fail_link_now(core::NodeId u, core::NodeId v) {
    const std::int32_t link = checked_link(u, v, "fail_link");
    net().check_serial_phase("fail_link_now");
    bump_link_epoch(link);
    link_failed_[static_cast<std::size_t>(link)] = 1;
  }
  void fail_link_at(core::NodeId u, core::NodeId v, double at) {
    net().schedule_serial(at, [this, u, v] { fail_link_now(u, v); });
  }

  /// Overlap-safe link flap window, mirroring `crash_windowed`: the
  /// restore at `up` fires only while this window's failure is still the
  /// link's most recent one.
  std::size_t fail_link_windowed(core::NodeId u, core::NodeId v, double down) {
    const std::int32_t link = checked_link(u, v, "fail_link");
    const std::size_t w = new_window();
    if (down <= 0.0) {
      fail_link_now(u, v);
      window_epoch_[w] = link_epoch_of(link);
    } else {
      net().schedule_serial(down, [this, u, v, link, w] {
        fail_link_now(u, v);
        window_epoch_[w] = link_epoch_of(link);
      });
    }
    return w;
  }
  void restore_link_windowed(core::NodeId u, core::NodeId v, double up,
                             std::size_t window) {
    LHG_CHECK(window < window_epoch_.size(),
              "restore_link_windowed: bad window token {}", window);
    net().schedule_serial(up, [this, u, v, w = window] {
      const std::int32_t link = topology_->edge_index(u, v);
      if (link_epoch_of(link) == window_epoch_[w]) restore_link_now(u, v);
    });
  }

  /// Brings a failed link back up (a "flap" is fail_link_at + this).
  /// Idempotent.
  void restore_link_now(core::NodeId u, core::NodeId v) {
    const std::int32_t link = checked_link(u, v, "restore_link");
    net().check_serial_phase("restore_link_now");
    link_failed_[static_cast<std::size_t>(link)] = 0;
  }
  void restore_link_at(core::NodeId u, core::NodeId v, double at) {
    net().schedule_serial(at, [this, u, v] { restore_link_now(u, v); });
  }

  /// Activates a bipartition: `side` maps every node to 0 or 1, and
  /// while active every transmission whose endpoints disagree is
  /// blocked at send time and dropped at delivery time.  One partition
  /// is active at a time (a new call replaces the old cut and advances
  /// the partition epoch, invalidating scheduled window clears for the
  /// replaced cut).
  void set_partition(std::vector<std::uint8_t> side) {
    LHG_CHECK(static_cast<core::NodeId>(side.size()) == topology_->num_nodes(),
              "partition: side map has {} entries for n={}", side.size(),
              topology_->num_nodes());
    net().check_serial_phase("set_partition");
    for (const std::uint8_t s : side) {
      LHG_CHECK(s <= 1, "partition: side {} is not 0 or 1", s);
    }
    partition_side_ = std::move(side);
    partition_active_ = true;
    ++partition_epoch_;
  }
  void clear_partition() {
    net().check_serial_phase("clear_partition");
    partition_active_ = false;
  }
  bool partition_active() const { return partition_active_; }

  /// Schedules the partition for the window [start, end).  The clear at
  /// `end` is epoch-guarded: if another partition replaces this one
  /// mid-window, the stale clear no longer dissolves the new cut.
  void partition_during(std::vector<std::uint8_t> side, double start,
                        double end) {
    LHG_CHECK(start < end, "partition: empty window [{}, {})", start, end);
    const std::size_t w = new_window();
    net().schedule_serial(start, [this, w, side = std::move(side)]() mutable {
      set_partition(std::move(side));
      window_epoch_[w] = partition_epoch_;
    });
    net().schedule_serial(end, [this, w] {
      if (partition_epoch_ == window_epoch_[w]) clear_partition();
    });
  }

  /// Activates `side` immediately and schedules the epoch-guarded clear
  /// at `end` — the immediate-start form of `partition_during`.
  void partition_until(std::vector<std::uint8_t> side, double end) {
    set_partition(std::move(side));
    net().schedule_serial(end, [this, e = partition_epoch_] {
      if (partition_epoch_ == e) clear_partition();
    });
  }

  bool is_alive(core::NodeId node) const {
    return crashed_[static_cast<std::size_t>(node)] == 0;
  }
  bool link_ok(core::NodeId u, core::NodeId v) const {
    const std::int32_t link = topology_->edge_index(u, v);
    return link >= 0 && link_failed_[static_cast<std::size_t>(link)] == 0;
  }
  std::int32_t alive_count() const { return alive_count_; }

 protected:
  /// Validates the specs and, for kUniformPerLink, draws every link's
  /// latency from `rng` in canonical edge order.  `channels` is the
  /// number of channels (Gilbert–Elliott chains) the network uses.
  FaultModel(const Topology& topology, LatencySpec latency, core::Rng& rng,
             const ChaosSpec& chaos, std::size_t channels)
      : topology_(&topology),
        latency_(latency),
        chaos_(chaos),
        crashed_(static_cast<std::size_t>(topology.num_nodes()), 0),
        alive_count_(topology.num_nodes()),
        link_failed_(static_cast<std::size_t>(topology.num_edges()), 0) {
    LHG_CHECK(latency.base >= 0 && latency.jitter >= 0,
              "Network: negative latency (base={}, jitter={})", latency.base,
              latency.jitter);
    detail::check_probability(chaos.loss, "loss");
    detail::check_probability(chaos.duplicate, "duplicate");
    detail::check_probability(chaos.reorder, "reorder");
    LHG_CHECK(chaos.reorder_jitter >= 0.0,
              "Network: negative reorder jitter {}", chaos.reorder_jitter);
    if (chaos.gilbert_elliott) {
      detail::check_probability(chaos.ge_good_to_bad, "GE good->bad");
      detail::check_probability(chaos.ge_bad_to_good, "GE bad->good");
      detail::check_probability(chaos.ge_loss_bad, "GE bad-state loss");
      // Every channel starts in the good state.
      channel_bad_.assign(channels, 0);
    }
    if (latency.kind == LatencySpec::Kind::kUniformPerLink) {
      // Drawn up front, in canonical edge order (the pinned consumption
      // order of the determinism contract); the send path then reduces
      // to a flat load.
      link_latency_.resize(static_cast<std::size_t>(topology.num_edges()));
      for (double& l : link_latency_) {
        l = latency.base + latency.jitter * rng.next_double();
      }
    }
  }

  /// One transmission: the send-time checks, then the channel draws of
  /// `channel`; `deliver(delay)` schedules each surviving copy.  Returns
  /// false (and schedules nothing) when the send is refused.
  template <typename Deliver>
  bool transmit(NetworkStats& stats, const obs::SimObs* obs, double now,
                core::NodeId from, core::NodeId to, std::int32_t link,
                std::size_t channel, Deliver&& deliver) {
    if (crashed_[static_cast<std::size_t>(from)] != 0) {
      return refused(stats.blocked_sender_crashed, obs, now, from, to,
                     obs::DropCause::kBlockedSenderCrashed);
    }
    if (link_failed_[static_cast<std::size_t>(link)] != 0) {
      return refused(stats.blocked_link_down, obs, now, from, to,
                     obs::DropCause::kBlockedLinkDown);
    }
    if (partition_cuts(from, to)) {
      return refused(stats.blocked_partition, obs, now, from, to,
                     obs::DropCause::kBlockedPartition);
    }
    ++stats.sent;
    if (obs != nullptr) {
      obs->add(obs->net_sent);
      obs->event(now, obs::TraceKind::kSend, from, to, link);
    }
    if (channel_drops(channel)) {
      ++stats.lost;  // transmitted but dropped on the wire
      if (obs != nullptr) {
        obs->add(obs->net_lost);
        obs->event(now, obs::TraceKind::kDrop, from, to,
                   static_cast<std::int64_t>(obs::DropCause::kChannelLoss));
      }
      return true;
    }
    deliver(copy_delay(obs, link, channel));
    if (chaos_.duplicate > 0.0 &&
        net().channel_rng(channel).next_bool(chaos_.duplicate)) {
      ++stats.duplicated;
      if (obs != nullptr) obs->add(obs->net_duplicated);
      deliver(copy_delay(obs, link, channel));
    }
    return true;
  }

  /// Delivery-instant checks: the receiver must be alive, the link must
  /// still be up, and no active partition may separate the endpoints (a
  /// message in flight when its link fails or the cut activates is
  /// lost, modeling a cut trunk).  The sender's state is irrelevant
  /// here — it was alive at send time or transmit() refused.  True =
  /// hand the copy to the receive handler.
  bool admit_delivery(NetworkStats& stats, const obs::SimObs* obs,
                      double now, core::NodeId from, core::NodeId to,
                      std::int32_t link) const {
    if (crashed_[static_cast<std::size_t>(to)] != 0) {
      return dropped(stats.dropped_receiver_crashed, obs, now, from, to,
                     obs::DropCause::kReceiverCrashed);
    }
    if (link_failed_[static_cast<std::size_t>(link)] != 0) {
      return dropped(stats.dropped_link_down, obs, now, from, to,
                     obs::DropCause::kLinkDown);
    }
    if (partition_cuts(from, to)) {
      return dropped(stats.dropped_partition, obs, now, from, to,
                     obs::DropCause::kPartition);
    }
    ++stats.delivered;
    if (obs != nullptr) {
      obs->add(obs->net_delivered);
      obs->event(now, obs::TraceKind::kDeliver, to, from, link);
    }
    return true;
  }

  /// Lower bound of the latency a copy on `link` can experience.
  double link_floor(std::int32_t link) const {
    return latency_.kind == LatencySpec::Kind::kUniformPerLink
               ? link_latency_[static_cast<std::size_t>(link)]
               : latency_.base;
  }

 private:
  Net& net() { return static_cast<Net&>(*this); }

  std::int32_t checked_link(core::NodeId u, core::NodeId v,
                            const char* what) const {
    const std::int32_t link = topology_->edge_index(u, v);
    LHG_CHECK(link >= 0, "{}: ({}, {}) not a link", what, u, v);
    return link;
  }

  double sample_latency(std::int32_t link, std::size_t channel) {
    switch (latency_.kind) {
      case LatencySpec::Kind::kFixed:
        return latency_.base;
      case LatencySpec::Kind::kUniformPerLink:
        return link_latency_[static_cast<std::size_t>(link)];
      case LatencySpec::Kind::kUniformPerSend:
        return latency_.base +
               latency_.jitter * net().channel_rng(channel).next_double();
    }
    LHG_CHECK(false, "Network: unknown latency kind {}",
              static_cast<int>(latency_.kind));
  }

  // Advances the channel for one transmission; true = the copy drops.
  bool channel_drops(std::size_t channel) {
    if (chaos_.gilbert_elliott) {
      core::Rng& rng = net().channel_rng(channel);
      std::uint8_t& bad = channel_bad_[channel];
      // Advance the two-state chain once per transmission, then draw the
      // loss in the bad state (the good state never drops, so it draws
      // nothing).
      if (bad == 0) {
        if (rng.next_bool(chaos_.ge_good_to_bad)) bad = 1;
      } else {
        if (rng.next_bool(chaos_.ge_bad_to_good)) bad = 0;
      }
      const double p = bad != 0 ? chaos_.ge_loss_bad : 0.0;
      return p > 0.0 && rng.next_bool(p);
    }
    return chaos_.loss > 0.0 &&
           net().channel_rng(channel).next_bool(chaos_.loss);
  }

  // Delay of one copy: latency, plus the optional reorder jitter.
  double copy_delay(const obs::SimObs* obs, std::int32_t link,
                    std::size_t channel) {
    double delay = sample_latency(link, channel);
    if (chaos_.reorder > 0.0 &&
        net().channel_rng(channel).next_bool(chaos_.reorder)) {
      delay += chaos_.reorder_jitter * net().channel_rng(channel).next_double();
    }
    if (obs != nullptr) {
      obs->observe(obs->net_delay, obs::SimObs::milli_ticks(delay));
    }
    return delay;
  }

  // Cold-path accounting for refused sends / dropped copies; both
  // return false so admission checks can `return` them directly.
  static bool refused(std::int64_t& counter, const obs::SimObs* obs,
                      double now, core::NodeId from, core::NodeId to,
                      obs::DropCause cause) {
    ++counter;
    if (obs != nullptr) {
      obs->add(obs->net_blocked);
      obs->event(now, obs::TraceKind::kDrop, from, to,
                 static_cast<std::int64_t>(cause));
    }
    return false;
  }
  static bool dropped(std::int64_t& counter, const obs::SimObs* obs,
                      double now, core::NodeId from, core::NodeId to,
                      obs::DropCause cause) {
    ++counter;
    if (obs != nullptr) {
      obs->add(obs->net_dropped);
      obs->event(now, obs::TraceKind::kDrop, from, to,
                 static_cast<std::int64_t>(cause));
    }
    return false;
  }

  bool partition_cuts(core::NodeId u, core::NodeId v) const {
    return partition_active_ &&
           partition_side_[static_cast<std::size_t>(u)] !=
               partition_side_[static_cast<std::size_t>(v)];
  }

  // --- Mutation epochs (overlap-safe timed windows) ---------------------
  // Every crash / link-failure / set_partition call advances an epoch;
  // a windowed end-event captures the epoch its own start produced and
  // fires only while it still matches, so a window whose state was
  // replaced mid-flight cannot clobber the replacement.  The per-node /
  // per-link vectors are lazily allocated: failure-free runs pay nothing.
  void bump_crash_epoch(core::NodeId node) {
    if (crash_epoch_.empty()) {
      crash_epoch_.assign(static_cast<std::size_t>(topology_->num_nodes()), 0);
    }
    ++crash_epoch_[static_cast<std::size_t>(node)];
  }
  std::uint64_t crash_epoch_of(core::NodeId node) const {
    return crash_epoch_.empty() ? 0
                                : crash_epoch_[static_cast<std::size_t>(node)];
  }
  void bump_link_epoch(std::int32_t link) {
    if (link_epoch_.empty()) {
      link_epoch_.assign(static_cast<std::size_t>(topology_->num_edges()), 0);
    }
    ++link_epoch_[static_cast<std::size_t>(link)];
  }
  std::uint64_t link_epoch_of(std::int32_t link) const {
    return link_epoch_.empty() ? 0
                               : link_epoch_[static_cast<std::size_t>(link)];
  }
  std::size_t new_window() {
    window_epoch_.push_back(0);
    return window_epoch_.size() - 1;
  }

  const Topology* topology_;
  LatencySpec latency_;
  ChaosSpec chaos_;
  std::vector<std::uint8_t> crashed_;  // byte-wide: hot-path loads, no bit ops
  std::int32_t alive_count_ = 0;
  std::vector<double> link_latency_;       // per edge id (kUniformPerLink)
  std::vector<std::uint8_t> link_failed_;  // per edge id
  std::vector<std::uint8_t> channel_bad_;  // per channel: GE chain state
  std::vector<std::uint8_t> partition_side_;  // per node; empty until set
  bool partition_active_ = false;
  std::vector<std::uint64_t> crash_epoch_;   // per node; lazy
  std::vector<std::uint64_t> link_epoch_;    // per edge id; lazy
  std::uint64_t partition_epoch_ = 0;
  std::vector<std::uint64_t> window_epoch_;  // one slot per windowed call
};

}  // namespace lhg::flooding
