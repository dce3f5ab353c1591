// Per-layer probes of the traced run: the layer ladder L0-L6 over the
// flood_1m event pattern plus one probe per library layer, each timed
// around public calls only.

#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "harness.h"

namespace perfbench {

struct LayerReport {
  std::vector<Metric> metrics;  // every per-layer metric but trace.overhead_ratio
  std::int64_t checks = 0;      // probe outputs checked
  std::int64_t failed = 0;      // checks that failed
};

/// Runs every probe with inputs drawn from `seed`, prints the ladder
/// and the probe results to `out`, and records spans on `tracer`.
LayerReport run_layer_probes(std::uint64_t seed, Tracer& tracer,
                             std::ostream& out);

}  // namespace perfbench
