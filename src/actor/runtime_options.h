// Configuration of the actor runtime: cluster shape, placement, network
// model, and activation lifecycle.

#ifndef AODB_ACTOR_RUNTIME_OPTIONS_H_
#define AODB_ACTOR_RUNTIME_OPTIONS_H_

#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/retry.h"

namespace aodb {

/// Strategy for choosing the silo of a new activation (Orleans-style).
enum class Placement {
  /// Uniform random silo: spreads load; the Orleans default.
  kRandom,
  /// The silo of the calling actor (random for external callers). The paper
  /// uses this for sensor channels and aggregators to avoid remote calls.
  kPreferLocal,
  /// Deterministic hash of the actor key.
  kHash,
};

/// Parameters of the simulated datacenter network (cross-silo and
/// client-to-silo messaging). Latencies are one-way.
struct NetworkOptions {
  /// Base one-way latency between two silos (same-AZ TCP hop).
  Micros silo_latency_us = 500;
  /// Base one-way latency between the client node and any silo.
  Micros client_latency_us = 300;
  /// Uniform jitter added on top of the base latency, [0, jitter_us).
  Micros jitter_us = 200;
  /// Serialization/wire throughput in bytes per microsecond (~1 GB/s).
  double bytes_per_us = 1000.0;
  /// Extra CPU charged on the receiving silo for each remote message
  /// (serialization/deserialization and RPC dispatch). Local messages pass
  /// pointers and pay nothing — this asymmetry is what the paper's
  /// prefer-local placement exploits.
  Micros serialization_cost_us = 40;
};

/// Configuration of the wire (serialized invocation) lane.
struct WireOptions {
  /// No effect: a cross-silo send of a method with no MethodRegistry
  /// registration always fails with FailedPrecondition naming the actor
  /// type. Kept only because the platform benchmark still sets it; delete
  /// it together with that assignment.
  bool require_wire = false;
};

/// Cluster membership & automatic failure detection (Orleans-style lease
/// table + heartbeat ring). Off by default: without it, silo death is only
/// handled when announced via Cluster::KillSilo.
struct MembershipOptions {
  /// Master switch. When enabled each silo maintains a lease row in the
  /// system store, renews it on a heartbeat timer, and probes a ring of
  /// peers; a quorum of suspecting silos (or an expired lease plus one
  /// suspector) evicts the target automatically.
  bool enable = false;
  /// Lifetime of one lease renewal; a row older than this is expired.
  Micros lease_duration_us = 5 * kMicrosPerSecond;
  /// Period of lease renewal. Must be well under lease_duration_us.
  Micros heartbeat_period_us = kMicrosPerSecond;
  /// Period of ring probes.
  Micros probe_period_us = kMicrosPerSecond;
  /// A probe unanswered after this long counts as missed.
  Micros probe_timeout_us = 400 * kMicrosPerMilli;
  /// Number of ring successors each silo probes.
  int probe_fanout = 2;
  /// Consecutive missed probes before the prober suspects the target.
  int suspect_after_missed = 3;
  /// Distinct suspecting silos required to declare a target dead. Clamped
  /// to the number of potential voters (live silos minus the target).
  int eviction_quorum = 2;
  /// Failover policy for in-flight wire calls pending against an evicted
  /// silo: idempotent methods are re-submitted under this policy's attempt
  /// cap and backoff; non-idempotent calls fail with Unavailable.
  RetryPolicy failover;
};

/// Distributed tracing (actor/trace.h). Off by default: benchmarks opt in
/// with a sampling rate, tests with sample_every = 1.
struct TraceOptions {
  /// 1-in-N root sampling; <= 0 disables tracing entirely (no ids are
  /// allocated, no spans recorded, and envelopes carry an invalid context).
  int sample_every = 0;
  /// Span slots per silo ring (rounded up to a power of two). Oldest spans
  /// are overwritten on wrap.
  int ring_capacity = 4096;
};

/// Adaptive overload management: bounded mailboxes with caller-visible
/// backpressure, silo-level priority shedding, and hot-activation migration.
/// Everything off by default — the seed benchmarks accept unbounded work.
struct OverloadOptions {
  /// Per-activation mailbox cap (0 = unbounded). A delivery that would
  /// exceed it is rejected with Status::Overloaded instead of queued; the
  /// sender's retry policy treats that as retryable-with-backoff (see
  /// IsTransient).
  int max_mailbox_depth = 0;
  /// Silo-level shed watermark over the TOTAL queued envelopes on a silo
  /// (0 = shedding off). At or past it, kTelemetry messages are rejected
  /// with Status::Overloaded; kQuery messages are rejected past
  /// shed_hard_watermark (defaults to 2x the watermark when 0). kControl
  /// traffic is never shed.
  int64_t shed_watermark = 0;
  int64_t shed_hard_watermark = 0;
  /// Master switch of the hot-activation migration controller: a periodic
  /// sampler that flags the hottest activation of the most loaded silo (by
  /// queued-envelope counts) and live-migrates it to the least loaded silo
  /// (deactivate → directory move → reactivate from persisted state).
  bool enable_hot_migration = false;
  /// Controller sampling period.
  Micros scan_interval_us = kMicrosPerSecond;
  /// An activation is migration-eligible only with at least this many
  /// queued envelopes at sampling time (filters out merely-busy actors).
  int hot_actor_min_depth = 16;
  /// The source silo must have at least this many more queued envelopes
  /// than the destination, or the move is not worth the reactivation cost.
  int64_t min_load_delta = 32;
  /// Anti-churn guard: after a migration, the moved actor cannot be picked
  /// again and the destination silo cannot receive another migration until
  /// this much time passes. Queued-envelope counts lag a move (a silo that
  /// just received a hot actor still samples as cool), so without the
  /// cooldown the controller re-co-locates hot actors and ping-pongs them
  /// between silos — each move pauses the actor, making churn itself an
  /// overload source.
  Micros migration_cooldown_us = 2 * kMicrosPerSecond;
};

/// Observability plane: the black-box flight recorder, the background
/// metrics time-series sampler, and postmortem bundles (see DESIGN.md
/// "Observability plane"). The recorder is ON by default — recording is a
/// relaxed fetch_add plus a fixed-size slot store, cheap enough to stay
/// enabled in production (see EXPERIMENTS.md overhead table).
struct ObservabilityOptions {
  /// Master switch of the flight recorder (1,024 events per silo ring).
  /// Off → Record is a branch.
  bool enable_flight_recorder = true;
  /// Cadence of the background metrics sampler (0 = sampler off, the
  /// default — figure benches must stay bit-identical). When set,
  /// Cluster::StartMetricsSampler records a MetricsSnapshot delta into the
  /// timeline (the last 256 samples) every interval.
  Micros metrics_sample_interval_us = 0;
  /// When non-empty, Cluster::Stop writes a postmortem bundle here if the
  /// run leaked promises (the hang-forever bug class); explicit
  /// Cluster::DumpPostmortem(path) works regardless.
  std::string postmortem_path;
};

/// Activation lifecycle management (idle deactivation scanner).
struct LifecycleOptions {
  /// When true, silos periodically deactivate idle actors (persisting their
  /// state first). The paper's evaluation keeps grains resident and writes
  /// state only at shutdown, so benchmarks leave this off.
  bool enable_idle_deactivation = false;
  Micros idle_timeout_us = 60 * kMicrosPerSecond;
  Micros scan_interval_us = 10 * kMicrosPerSecond;
};

/// Top-level runtime configuration.
struct RuntimeOptions {
  int num_silos = 1;
  /// vCPUs per silo. 2 models the paper's m5.large; 3 models the m5.xlarge
  /// via the paper's own 1.5x ECU ratio.
  int workers_per_silo = 2;
  Placement default_placement = Placement::kRandom;
  /// Default absolute deadline budget for calls that do not set one
  /// explicitly (0 = calls may wait forever). When set, every call's
  /// promise is completed with Status::Timeout no later than its deadline,
  /// and nested calls inherit the caller's remaining deadline.
  Micros default_call_deadline_us = 0;
  /// Max envelopes one scheduled turn may drain from an activation's mailbox
  /// before re-posting (real executor only; the simulator always runs one
  /// envelope per task because it charges each task's declared cost up
  /// front). Batching amortizes executor queue round-trips for hot actors;
  /// the cap bounds how long one actor can monopolize a worker. 1 disables.
  int max_turn_batch = 16;
  /// Per-silo working-set cap on resident activations (0 = unbounded, the
  /// default). Past the cap the silo pages the least-recently-active idle
  /// activations out to storage — their directory registration is KEPT and
  /// marked paged, so the next message faults the actor back in on the same
  /// silo instead of re-placing it. Busy actors are never paged mid-turn
  /// (same kIdle -> kDeactivating claim as the idle sweeper).
  int max_resident_activations = 0;
  NetworkOptions network;
  WireOptions wire;
  MembershipOptions membership;
  LifecycleOptions lifecycle;
  OverloadOptions overload;
  TraceOptions trace;
  ObservabilityOptions observability;
  /// Turns whose measured execution time exceeds this are logged at WARN
  /// with their actor, duration, and trace id (0 = never). Only meaningful
  /// under the real executor; the simulator charges cost up front, so
  /// measured execution inside a turn is ~0 there.
  Micros slow_turn_threshold_us = 0;
  uint64_t seed = 42;
};

}  // namespace aodb

#endif  // AODB_ACTOR_RUNTIME_OPTIONS_H_
