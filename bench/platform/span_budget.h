// Latency budget of sampled requests: joins the benchmark's own root spans
// (scheduled send -> reply) with the runtime's turn spans and the storage
// spans of the same trace, and splits each root's interval into layers.

#ifndef AODB_BENCH_PLATFORM_SPAN_BUDGET_H_
#define AODB_BENCH_PLATFORM_SPAN_BUDGET_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "actor/trace.h"
#include "workloads.h"

namespace aodb {
namespace platform_bench {

/// One sampled client operation, timed by the generator (steady-clock
/// microseconds, the runtime's span clock).
struct RootSpan {
  uint64_t trace_id = 0;
  OpType type = OpType::kInsert;
  double due_us = 0;   ///< When the operation was scheduled to be sent.
  double sent_us = 0;  ///< When the generator actually sent it.
  double done_us = 0;  ///< When its reply reached the client.
};

/// Layers a root's interval is split into. Each instant of the interval is
/// given to exactly one layer, the first in this order that covers it:
///   generator - the generator had not yet sent the request (lateness);
///   storage   - a storage call of the request was running;
///   turn      - an actor turn of the request was running;
///   mailbox   - a message of the request waited in a mailbox or run queue;
///   residual  - none of the above: wire encode/decode, timer-thread hops,
///               the reply path and the client executor.
/// So the layers sum to the total exactly.
enum Layer : int {
  kGenerator = 0,
  kStorage = 1,
  kTurn = 2,
  kMailbox = 3,
  kResidual = 4,
  kNumLayers = 5
};

const char* LayerName(int layer);

/// Summed budget of all sampled roots of one operation type.
struct Budget {
  int64_t traces = 0;
  double total_us = 0;
  std::array<double, kNumLayers> layer_us{};
};

/// Turn spans of messages nobody waits for (tells to aggregators and
/// virtual channels) are off the reply's path and are left out.
bool OnReplyPath(const SpanRecord& span);

/// Budgets per operation type. `spans` maps trace id -> that trace's
/// runtime spans (turns and storage).
std::array<Budget, kNumOpTypes> ComputeBudgets(
    const std::vector<RootSpan>& roots,
    const std::unordered_map<uint64_t, std::vector<SpanRecord>>& spans);

}  // namespace platform_bench
}  // namespace aodb

#endif  // AODB_BENCH_PLATFORM_SPAN_BUDGET_H_
