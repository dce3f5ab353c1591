// The benchmark's four workloads.  Each builds its inputs from the run
// seed before any op is timed, times one dissemination per op from the
// outside of the library, and checks every op's output.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/graph.h"
#include "flooding/failure.h"
#include "flooding/protocols.h"
#include "flooding/reliable_broadcast.h"
#include "flooding/repair.h"
#include "harness.h"

namespace perfbench {

inline constexpr std::int32_t kK = 4;
inline constexpr std::int64_t kFloodN = 1'000'000;
inline constexpr std::int32_t kLossyN = 65'536;
inline constexpr std::int32_t kRepairN = 2'048;
inline constexpr double kRepairCrashTime = 2.0;

/// Inputs of flood_1m (shards = 1) and flood_1m_s4 (shards = 4).
lhg::flooding::FloodConfig flood_config(std::uint64_t seed,
                                        std::int32_t shards);

/// Inputs of op `op` of reliable_lossy_64k: 10% i.i.d. loss, per-send
/// latency in [1.0, 1.5], all draws from Rng::stream(seed, op).
lhg::flooding::ReliableBroadcastConfig lossy_config(std::uint64_t seed,
                                                    std::int64_t op);

/// One repair_2k trial: k-1 random crashes at t = 2 (node 0 protected)
/// and the trial's own simulation seed, both from Rng::stream(seed, i).
struct RepairTrial {
  lhg::flooding::FailurePlan plan;
  lhg::flooding::RepairConfig cfg;
};
std::vector<RepairTrial> repair_trials(const lhg::core::Graph& g,
                                       std::uint64_t seed, std::int64_t count);

/// Delivery vectors, counts and NetworkStats bit-equal: the sharded
/// engine's contract on chaos-free fixed-latency floods.
bool same_flood(const lhg::flooding::DisseminationResult& a,
                const lhg::flooding::DisseminationResult& b);

/// Outcome of one op: its wall time and whether its output checked out.
struct OpResult {
  std::int64_t wall_ns = 0;
  bool ok = false;
};

/// One timed batch: a single op on the flood workloads, one op per
/// TrialRunner lane on reliable_lossy_64k and repair_2k.  `wall_ns`
/// spans the whole batch.
struct Batch {
  std::vector<OpResult> ops;
  std::int64_t wall_ns = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds topology, reference results and inputs from `seed`, then
  /// warms up with one checked batch.  Starts from scratch on every
  /// call.
  virtual void setup(std::uint64_t seed, Tracer& tracer) = 0;

  /// Runs and checks one batch; `op` numbers the batch's first op.
  virtual Batch run_batch(Tracer& tracer, std::int64_t op) = 0;
};

/// The workload called `name`, or null if there is none.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
