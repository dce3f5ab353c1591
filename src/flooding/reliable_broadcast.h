// Reliable broadcast over lossy links: flooding plus per-link
// ACK/retransmit (the ReliableLink layer).
//
// Plain flooding assumes reliable channels; on lossy links a dropped
// copy can silence a whole subtree.  This protocol keeps flooding's
// structure but rides every link-hop on ReliableLink: DATA is ACKed,
// unACKed copies are retransmitted every kRetransmitInterval (3.0) of
// virtual time until retries run out, and duplicate DATA is re-ACKed
// but not re-forwarded.
//
// With i.i.d. loss probability p and fixed-interval retries, a link-hop
// fails only if all 1+max_retries transmissions drop (p^(r+1)); the E13
// bench measures delivery and the message overhead this costs versus
// plain flooding.  The `chaos` field exposes the full adversarial
// channel (bursty loss, duplication, reordering) to the E20 sweeps.

#pragma once

#include <cstdint>

#include "core/graph.h"
#include "flooding/failure.h"
#include "flooding/protocols.h"

namespace lhg::flooding {

/// Virtual-time gap between transmissions of an unACKed copy: the
/// fixed-interval schedule BackoffPolicy::fixed(kRetransmitInterval,
/// max_retries).
inline constexpr double kRetransmitInterval = 3.0;

struct ReliableBroadcastConfig {
  core::NodeId source = 0;
  LatencySpec latency = LatencySpec::fixed(1.0);
  std::uint64_t seed = 1;

  /// Adversarial channel; `ChaosSpec::iid(p)` is plain per-transmission
  /// loss with probability p.
  ChaosSpec chaos{};

  /// Retransmissions per (sender, receiver) copy after the first send,
  /// each kRetransmitInterval after the previous attempt.
  std::int32_t max_retries = 5;
  /// Keep retry timers alive when a send is refused outright (link
  /// down, partition) instead of abandoning the copy — required for
  /// delivery across transient partition windows
  /// (BackoffPolicy::persist_when_blocked).
  bool persist_when_blocked = false;

  /// Metrics / trace recording (off by default: zero overhead).
  obs::ObsConfig obs{};
};

struct ReliableBroadcastResult : DisseminationResult {
  std::int64_t retransmissions = 0;
  std::int64_t acks_sent = 0;
  std::int64_t messages_lost = 0;
  std::int64_t duplicates_suppressed = 0;
  /// Frames abandoned by the sender's sliding window (an arc had 1024
  /// unACKed seqs in flight); see ReliableLink::window_overflows.
  std::int64_t window_overflows = 0;
};

/// Runs the protocol to completion (all timers drained) and reports
/// delivery and cost.  Throws std::invalid_argument on bad config.
ReliableBroadcastResult reliable_broadcast(const core::Graph& topology,
                                           const ReliableBroadcastConfig& cfg,
                                           const FailurePlan& failures = {});

}  // namespace lhg::flooding
