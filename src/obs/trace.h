// Structured trace sink: typed simulator events in a preallocated ring
// buffer, exportable as Chrome trace_event JSON.
//
// Tracing answers the question metrics cannot: *when* did per-arc
// traffic pile up, which retransmit storm preceded the suspicion, what
// did the view-change wave look like.  The sink records fixed-size
// typed records (24 bytes: virtual time, kind, two node ids, a detail
// word) into a ring buffer allocated once in the constructor — the
// recording path performs no allocation and no formatting.  When the
// ring wraps, the oldest events are overwritten and counted, so a soak
// run keeps its most recent window instead of growing without bound —
// deliberately the same sliding-window discipline as reliable_link's
// dedup state.
//
// Export is Chrome trace_event JSON ("JSON Object Format" with a
// traceEvents array of instant events), loadable in chrome://tracing
// and Perfetto.  One virtual time unit maps to 1 ms (ts is in
// microseconds); tid is the acting node, so the per-node swimlanes line
// up with the overlay.  scripts/trace_check.py validates the schema.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace lhg::obs {

/// Event vocabulary shared by every instrumented layer.
enum class TraceKind : std::uint8_t {
  kSend,        ///< network accepted a transmission (node -> peer)
  kDeliver,     ///< copy handed to the receive handler (node = receiver)
  kDrop,        ///< copy lost; detail = DropCause
  kRetransmit,  ///< reliable_link retried an unACKed copy; detail = seq
  kSuspicion,   ///< failure detector suspected peer; detail = 1 if false
  kViewChange,  ///< membership update relayed; detail = subject node
  kRewire,      ///< repair established a new overlay edge
  kCrash,       ///< node crashed
  kRecover,     ///< node recovered
};

/// `detail` values for kDrop events.
enum class DropCause : std::int64_t {
  kChannelLoss = 0,
  kReceiverCrashed = 1,
  kLinkDown = 2,
  kPartition = 3,
  kBlockedSenderCrashed = 4,
  kBlockedLinkDown = 5,
  kBlockedPartition = 6,
};

const char* trace_kind_name(TraceKind kind);

struct TraceEvent {
  double time = 0.0;         ///< virtual time
  std::int64_t detail = 0;   ///< kind-specific payload
  std::int32_t node = -1;    ///< acting node (tid in the export)
  std::int32_t peer = -1;    ///< other endpoint; -1 when not applicable
  TraceKind kind = TraceKind::kSend;
};

/// The node whose handler recorded `e`.  A copy dropped at delivery
/// (receiver crashed, link down, partition) is recorded by its receiver,
/// `peer`; every other event by `node`.
inline std::int32_t acting_node(const TraceEvent& e) {
  if (e.kind == TraceKind::kDrop &&
      (e.detail == static_cast<std::int64_t>(DropCause::kReceiverCrashed) ||
       e.detail == static_cast<std::int64_t>(DropCause::kLinkDown) ||
       e.detail == static_cast<std::int64_t>(DropCause::kPartition))) {
    return e.peer;
  }
  return e.node;
}

/// Chronological dump of a sink — what a run result carries around.
struct TraceLog {
  std::vector<TraceEvent> events;
  /// Events overwritten because the ring wrapped (oldest-first loss).
  std::int64_t dropped = 0;

  bool empty() const { return events.empty() && dropped == 0; }
};

class TraceSink {
 public:
  /// Ring capacity in events, rounded up to a power of two (>= 64).
  /// All storage is allocated here; `record` never allocates.
  explicit TraceSink(std::int64_t capacity);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void record(double time, TraceKind kind, std::int32_t node,
              std::int32_t peer, std::int64_t detail) {
    TraceEvent& e = ring_[static_cast<std::size_t>(head_) & mask_];
    e.time = time;
    e.detail = detail;
    e.node = node;
    e.peer = peer;
    e.kind = kind;
    ++head_;
  }

  std::int64_t capacity() const {
    return static_cast<std::int64_t>(ring_.size());
  }
  /// Events currently retained (<= capacity).
  std::int64_t size() const { return std::min(head_, capacity()); }
  /// Events overwritten by ring wraparound.
  std::int64_t dropped() const { return std::max<std::int64_t>(0, head_ - capacity()); }

  /// Retained events, oldest first.
  TraceLog log() const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t mask_ = 0;
  std::int64_t head_ = 0;  ///< total events ever recorded
};

/// Serializes a log as Chrome trace_event JSON (traceEvents array of
/// "i"-phase instant events plus process metadata).
void write_chrome_trace(std::ostream& out, const TraceLog& log);

/// File convenience; returns false (with a message on stderr) on I/O
/// failure.
bool write_chrome_trace(const std::string& path, const TraceLog& log);

}  // namespace lhg::obs
