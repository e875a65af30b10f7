// Distributed tracing for the actor runtime: a TraceContext rides on every
// Envelope, crosses the wire boundary inside the sealed frame, survives
// retries/failover and workflow steps, and every traced actor turn records a
// span into a lock-free per-silo ring buffer. Cluster::DumpTraceJson exports
// the rings as parent-linked traces.
//
// Id format: trace ids and span ids are small monotonically increasing
// integers drawn from per-cluster atomic counters (not random 128-bit ids).
// This keeps the wire overhead to a couple of varint bytes, makes dumps
// deterministic under the simulator, and is sufficient because traces never
// leave one cluster. Span id 0 is reserved for "no span" (a root).
//
// Sampling: the root-creation site (an external client call with no active
// trace) samples 1-in-N via TraceOptions::sample_every; everything caused by
// a sampled root inherits the sampled bit, so traces are always complete.

#ifndef AODB_ACTOR_TRACE_H_
#define AODB_ACTOR_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "actor/actor_id.h"
#include "actor/lossy_ring.h"
#include "common/clock.h"

namespace aodb {

class MetricsRegistry;

/// Causality context carried on every envelope. `span_id` is the span that
/// caused the message (the parent of any span the receiver opens).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool sampled = false;

  bool valid() const { return trace_id != 0; }
};

/// One completed unit of traced work (an actor turn, a client call, a
/// workflow step). Parent-linked via `parent_span_id`.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  /// Method name for wire calls, actor type for closure turns, or a logical
  /// label ("client", "workflow", "txn").
  std::string name;
  /// Target actor ("Type/key"), empty for non-turn spans.
  std::string actor;
  /// "turn" | "client" | "tell" | "workflow" | "txn".
  std::string kind;
  SiloId silo = kClientSiloId;
  Micros start_us = 0;
  Micros end_us = 0;
  /// Time the envelope waited in the mailbox before this turn (turn spans).
  Micros queue_wait_us = 0;
};

/// Per-cluster trace collector: id allocation, sampling decisions, and the
/// per-silo span rings (LossyRing; index num_silos holds client-side
/// spans).
class Tracer {
 public:
  /// `sample_every` <= 0 disables tracing (no roots are ever started);
  /// 1 samples everything, N samples one root in N. Metrics (spans
  /// recorded/dropped, traces started) are registered on `metrics`.
  Tracer(int num_silos, int sample_every, int ring_capacity,
         MetricsRegistry* metrics);

  bool enabled() const { return sample_every_ > 0; }

  /// Root-creation decision for an external call with no active trace.
  /// Returns an invalid context when tracing is off or this root lost the
  /// 1-in-N draw.
  TraceContext MaybeStartTrace();

  /// Allocates a fresh span id (callers build child contexts with it).
  uint64_t NewSpanId() {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records a completed span into the ring of `rec.silo`
  /// (kClientSiloId → the client ring). No-op for unsampled records.
  void Record(SpanRecord rec);

  /// All spans currently buffered, across every ring (unordered).
  std::vector<SpanRecord> Collect() const;

  /// Spans of one trace, sorted by start time.
  std::vector<SpanRecord> CollectTrace(uint64_t trace_id) const;

  /// Every buffered trace as JSON:
  /// {"traces":[{"trace_id":N,"spans":[{...parent-linked...}]}]}.
  std::string DumpJson() const;

 private:
  const int num_silos_;
  const int sample_every_;
  std::atomic<uint64_t> root_draw_{0};
  std::atomic<uint64_t> next_trace_{1};
  std::atomic<uint64_t> next_span_{1};
  std::vector<std::unique_ptr<LossyRing<SpanRecord>>> rings_;
  class Counter* spans_recorded_ = nullptr;
  class Counter* spans_dropped_ = nullptr;
  class Counter* traces_started_ = nullptr;
};

namespace internal {

/// Trace context of the actor turn (or client scope) currently running on
/// this thread; sends made inside it inherit the context, which is how
/// causality propagates without any plumbing in actor method signatures.
/// Mirrors CurrentTurnDeadline (envelope.h).
inline TraceContext& CurrentTraceContextSlot() {
  thread_local TraceContext ctx;
  return ctx;
}

}  // namespace internal

/// Context inherited by sends on this thread (invalid outside any traced
/// scope).
inline const TraceContext& CurrentTraceContext() {
  return internal::CurrentTraceContextSlot();
}

/// RAII scope installing `ctx` as the current trace context.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx)
      : saved_(internal::CurrentTraceContextSlot()) {
    internal::CurrentTraceContextSlot() = ctx;
  }
  ~ScopedTraceContext() { internal::CurrentTraceContextSlot() = saved_; }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace aodb

#endif  // AODB_ACTOR_TRACE_H_
