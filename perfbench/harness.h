// Measurement plumbing shared by the workloads and the per-layer probes:
// a monotonic clock, order statistics, peak RSS, the span recorder of
// the traced run, and the metric list that becomes the result line.
//
// Everything here lives on the benchmark side: spans are recorded
// around calls into the library's public API, never inside it, so the
// library's own code paths are identical in traced and untraced runs.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile q in [0, 1] (copies, so callers keep
/// their sample order).  Empty input yields 0.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set size of this process in MiB (VmHWM), 0 if the
/// platform does not report it.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

/// One named number of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Span recorder of the traced run.  A span is (name, start, end,
/// parent, op id); spans stay in memory until `write_json`.  A disabled
/// tracer records nothing and reads no clock, so untraced runs pay one
/// branch per scope.  Safe to use from TrialRunner lanes: the parent of
/// a scope opened on a worker thread is passed explicitly.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index into spans(), -1 for a root
    std::int64_t op;      // id shared by every span of one op, -1 for none
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII span.  `parent` defaults to the innermost open scope of the
  /// calling thread.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t op = -1,
          std::int32_t parent = kInherit)
        : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      if (parent == kInherit) parent = current_;
      id_ = tracer_.open(name, parent, op);
      saved_ = current_;
      current_ = id_;
    }
    ~Scope() {
      if (id_ < 0) return;
      tracer_.close(id_);
      current_ = saved_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::int32_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::int32_t id_ = -1;
    std::int32_t saved_ = -1;
  };

  static constexpr std::int32_t kInherit = -2;

  /// Snapshot of the recorded spans (all closed once their scopes end).
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  void write_json(const std::string& path) const;

 private:
  std::int32_t open(const char* name, std::int32_t parent, std::int64_t op) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t, -1, parent, op});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  static thread_local std::int32_t current_;
};

/// Per-name aggregate of a span list: count, total and self time.
/// Self time is a span's duration minus the union of its children's
/// intervals clipped to it (children on parallel lanes may overlap).
struct SpanSummary {
  std::string name;
  std::int64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::vector<SpanSummary> summarize(const std::vector<Tracer::Span>& spans);

}  // namespace perfbench
