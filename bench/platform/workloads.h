// The platform benchmark's workloads: one fixed cluster shape, four traffic
// mixes over the SHM platform, each chosen so a different layer of the
// runtime does most of the work (see README.md for the layer map).

#ifndef AODB_BENCH_PLATFORM_WORKLOADS_H_
#define AODB_BENCH_PLATFORM_WORKLOADS_H_

#include <string>
#include <vector>

namespace aodb {
namespace platform_bench {

/// Operation kinds the generator issues.
enum class OpType : int { kInsert = 0, kLive = 1, kRaw = 2 };
inline constexpr int kNumOpTypes = 3;

inline const char* OpName(OpType t) {
  switch (t) {
    case OpType::kInsert: return "insert";
    case OpType::kLive: return "live";
    case OpType::kRaw: return "raw";
  }
  return "?";
}

struct WorkloadSpec {
  std::string name;
  /// Topology: sensors (100 per organization, 2 channels each, a virtual
  /// channel on every 10th) and the raw window each channel keeps.
  int sensors = 1000;
  int window_capacity = 1024;
  /// Per-silo resident-activation cap (0 = unbounded).
  int max_resident_per_silo = 0;
  /// Acks only after both channels' states are written to storage.
  bool durable_acks = false;
  /// Page every activation out after set-up, so the measured phases start
  /// from a cold working set.
  bool deactivate_after_setup = false;
  /// Sensors (and the organizations of live queries) are drawn from
  /// Zipf(0.99) over scrambled ranks instead of uniformly.
  bool zipf = false;
  /// Open-loop Poisson rates, operations per second. The query rates follow
  /// the paper's 98/1/1 mix except on the dashboard workload.
  double insert_rate = 0;
  double live_rate = 0;
  double raw_rate = 0;
  /// Closed-loop capacity phase: which operation, how many outstanding, and
  /// the latency limit an operation must meet to count as completed.
  OpType capacity_op = OpType::kInsert;
  int capacity_outstanding = 64;
  double capacity_limit_us = 10000;
};

/// The four workloads, in the order a full set runs them.
const std::vector<WorkloadSpec>& Workloads();

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

}  // namespace platform_bench
}  // namespace aodb

#endif  // AODB_BENCH_PLATFORM_WORKLOADS_H_
