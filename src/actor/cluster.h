// The cluster: a set of silos, the actor directory, the network model and
// the wire lane, the actor type and storage-provider registries, and the
// cluster-wide agents (reminders, the hot-actor controller, the idle
// scanner, the metrics sampler). This is the top-level runtime object
// applications interact with.

#ifndef AODB_ACTOR_CLUSTER_H_
#define AODB_ACTOR_CLUSTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "actor/actor.h"
#include "actor/directory.h"
#include "actor/envelope.h"
#include "actor/flight_recorder.h"
#include "actor/network.h"
#include "actor/overload_controller.h"
#include "actor/periodic_task.h"
#include "actor/reminders.h"
#include "actor/runtime_options.h"
#include "actor/silo.h"
#include "actor/system_kv.h"
#include "actor/trace.h"
#include "common/telemetry.h"

namespace aodb {

template <typename T>
class ActorRef;
class FaultInjector;
class Link;
class MembershipService;
class StateStorage;
struct WireMethodEntry;

/// A running actor-oriented database cluster.
///
/// Construction wires together externally owned executors (one per silo plus
/// one client-node executor), so the same Cluster code runs on real thread
/// pools or on the discrete-event simulator. See MakeRealCluster (below) and
/// sim::SimHarness for the two canonical wirings.
class Cluster {
 public:
  /// `silo_executors` must have options.num_silos entries. `system_kv` is
  /// optional; without it reminders are volatile (in-memory only).
  Cluster(const RuntimeOptions& options, std::vector<Executor*> silo_executors,
          Executor* client_executor, SystemKv* system_kv = nullptr);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Registration -------------------------------------------------------

  /// Registers actor type T (default-constructible, with
  /// `static constexpr char kTypeName[]`).
  template <typename T>
  void RegisterActorType() {
    RegisterActorType(T::kTypeName,
                      [](const ActorId&) { return std::make_unique<T>(); });
  }

  /// Registers an actor type with an explicit factory, and its per-type
  /// metrics (see ActorType).
  void RegisterActorType(const std::string& type, ActorFactory factory);
  /// The registered type's record, or nullptr. Records live as long as the
  /// cluster.
  const ActorType* FindActorType(const std::string& type) const;

  /// Overrides placement for one actor type (e.g. prefer-local for sensor
  /// channels and aggregators, as in the paper's deployment).
  void SetTypePlacement(const std::string& type, Placement placement);

  /// Registers a named grain-state storage provider.
  void RegisterStateStorage(const std::string& name,
                            std::shared_ptr<StateStorage> storage);
  /// Returns the provider or nullptr.
  StateStorage* GetStateStorage(const std::string& name) const;

  // --- Messaging ----------------------------------------------------------

  /// Routes a message to its target's activation, placing/activating as
  /// needed. A same-silo send runs its closure (Envelope::fn); a remote one
  /// goes out as a wire frame, charged to the network model by its measured
  /// size, or fails with FailedPrecondition when the method has no wire
  /// registration.
  void Send(Envelope env);

  /// Typed client-side reference (caller is the external client node).
  /// Defined in actor/actor_ref.h.
  template <typename T>
  ActorRef<T> Ref(const std::string& key);

  /// Client-side reference through a base interface T addressing a concrete
  /// registered type name. Defined in actor/actor_ref.h.
  template <typename T>
  ActorRef<T> RefAs(const std::string& type, const std::string& key);

  // --- Agents -------------------------------------------------------------

  /// Persistent reminders (persistent timers firing
  /// ActorBase::ReceiveReminder).
  ReminderService& reminders() { return reminders_; }

  /// The hot-actor controller; its Start is a no-op unless
  /// options.overload.enable_hot_migration.
  OverloadController& overload_controller() { return controller_; }

  // --- Lifecycle ----------------------------------------------------------

  /// Starts periodic idle-deactivation sweeps on every silo (no-op unless
  /// options.lifecycle.enable_idle_deactivation).
  void StartIdleScanner();

  /// Live-migrates one activation to silo `to` (the deterministic handle
  /// tests drive instead of waiting for the controller). NotFound when the
  /// actor has no activation; Aborted when it is loading or already
  /// deactivating. OK also covers "already there".
  Status MigrateActivation(const ActorId& id, SiloId to);

  /// Deactivates all idle actors on all silos, flushing persistent state.
  Future<Status> DeactivateAll();

  /// Stops every agent's ticks and the membership loops. Called by the
  /// destructor.
  void Stop();

  // --- Fault injection ----------------------------------------------------

  /// Crashes a silo: its activations are dropped without flushing state,
  /// queued and newly routed messages fail with Unavailable, and its
  /// directory entries are purged so actors reactivate elsewhere from
  /// persisted state on the next call. Idempotent on a dead silo.
  void KillSilo(SiloId id);

  /// Rejoins a killed silo as an empty placement candidate. Idempotent on
  /// a live silo.
  void RestartSilo(SiloId id);

  /// False between KillSilo and RestartSilo.
  bool SiloAlive(SiloId id) const;

  // --- Membership & failure recovery --------------------------------------

  /// Removes a silo that failed WITHOUT announcing it (the failure-detector
  /// path; KillSilo shares the same internals). Stops placement, purges its
  /// directory registrations, fails over its pending in-flight calls
  /// (idempotent wire calls are re-submitted, everything else completes
  /// with Unavailable), and drops its queued work. Idempotent on a dead
  /// silo.
  void EvictSilo(SiloId id, const std::string& reason);

  /// The failure detector, or nullptr when options.membership.enable is
  /// false.
  MembershipService* membership() { return membership_.get(); }

  /// Counts one deadline enforcement event (called by the silo when it
  /// drops an expired envelope and by the caller-side watchdog).
  void NoteDeadlineExpired() { deadline_timeouts_->Add(); }

  /// Installs the injector whose message-fault hooks Send consults. Not
  /// owned; pass nullptr to detach. Usually called via FaultInjector::Arm.
  void SetFaultInjector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return fault_injector_.load(std::memory_order_acquire);
  }

  // --- Introspection ------------------------------------------------------

  const RuntimeOptions& options() const { return options_; }
  int num_silos() const { return static_cast<int>(silos_.size()); }
  Silo* silo(SiloId id) { return silos_[id].get(); }
  Executor* ExecutorFor(SiloId id) {
    return id == kClientSiloId ? client_executor_
                               : silo_executors_[id];
  }
  Executor* client_executor() { return client_executor_; }
  Clock* clock() { return client_executor_->clock(); }
  Directory& directory() { return directory_; }
  NetworkModel& network() { return network_; }
  size_t TotalActivations() const;
  int64_t TotalMessagesProcessed() const;

  // --- Telemetry ----------------------------------------------------------

  /// The unified metrics registry every subsystem records into. Resolve a
  /// metric pointer once; record through it lock-free thereafter.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The trace collector (enabled iff options.trace.sample_every > 0).
  Tracer& tracer() { return tracer_; }

  /// The black-box flight recorder (enabled by default; see
  /// ObservabilityOptions::enable_flight_recorder).
  FlightRecorder& flight_recorder() { return flight_; }
  const FlightRecorder& flight_recorder() const { return flight_; }

  /// All buffered flight events, merged and time-ordered across silos, as
  /// JSON (see FlightRecorder::DumpJson).
  std::string DumpFlightJson() const { return flight_.DumpJson(); }

  /// The metrics time-series the background sampler records into (tests and
  /// benches may also Record explicit samples).
  MetricsTimeline& metrics_timeline() { return timeline_; }

  /// Starts the background metrics sampler on the client-node executor
  /// (no-op unless options.observability.metrics_sample_interval_us > 0):
  /// every interval it records a SnapshotMetrics() delta into the timeline.
  void StartMetricsSampler();

  /// One self-describing postmortem bundle: recent flight events (merged,
  /// time-ordered), the metrics timeline, a final metrics snapshot, sampled
  /// spans, per-silo hot-actor summaries (queue depth, top activations),
  /// and the membership view. Deterministic under the simulator, so DST
  /// replays produce bit-identical bundles.
  std::string BuildPostmortemJson(const std::string& reason) const;

  /// Writes BuildPostmortemJson(reason) to `path` (logged at Warn so the
  /// bundle is discoverable next to the failure that triggered it).
  Status DumpPostmortem(const std::string& path,
                        const std::string& reason) const;

  /// Registry snapshot with point-in-time runtime gauges (activation and
  /// message totals) refreshed first.
  MetricsSnapshot SnapshotMetrics() const;

  /// SnapshotMetrics as an aligned text table / as one JSON object.
  std::string DumpMetrics() const { return SnapshotMetrics().ToTable(); }
  std::string DumpMetricsJson() const { return SnapshotMetrics().ToJson(); }

  /// All buffered traces, parent-linked, as JSON (see Tracer::DumpJson).
  std::string DumpTraceJson() const { return tracer_.DumpJson(); }

  /// Registry completeness check for fail-fast startup: every registered
  /// actor type must have at least one wire-registered method of its own
  /// (the runtime's ActorBase::ReceiveReminder registration does not
  /// count). Returns FailedPrecondition naming the uncovered types
  /// otherwise. Test fixtures assert this at cluster start.
  Status CheckWireRegistry() const;

 private:
  using WireReplyHandler = std::function<void(Result<std::string>&&)>;

  /// One wire call in flight against a remote silo, tracked (only when
  /// membership is enabled) so eviction can fail it over. `env` is a copy
  /// of the pre-send envelope with the original (unwrapped) reply handler,
  /// re-submittable through Send as-is.
  struct PendingCall {
    Envelope env;
    SiloId target = 0;
    uint64_t call_id = 0;
    bool idempotent = false;
  };

  /// Shared implementation of KillSilo (announced) and EvictSilo
  /// (failure-detector).
  void EvictInternal(SiloId id, const std::string& reason, bool automatic);
  /// Removes and returns true if the call was still pending. The wrapped
  /// reply handler calls this first and becomes a no-op when failover
  /// already took ownership of the call.
  bool TakePendingCall(uint64_t call_id);
  /// Re-submits or fails every pending call whose target is `dead`. Runs
  /// BEFORE the silo's queues are failed, so those Unavailable completions
  /// find their pending entries already taken and cannot race a
  /// re-submission for the caller's promise.
  void FailoverPendingCalls(SiloId dead);

  /// Remote send on the wire lane: encodes the request frame, charges the
  /// network model the measured byte count, and schedules decode + dispatch
  /// on the target silo.
  void SendWire(Envelope env, SiloId from, SiloId target, bool duplicate);
  /// Runs on the target executor: verifies and decodes the frame, resolves
  /// the method in the registry, and delivers a dispatch envelope.
  void DeliverWireFrame(SiloId target, SiloId caller_silo,
                        std::shared_ptr<const std::string> frame,
                        WireReplyHandler reply);
  /// Seals and ships an encoded Result payload back to the caller node
  /// (inline when the caller is this silo).
  void SendWireReply(SiloId from, SiloId to, const WireReplyHandler& reply,
                     std::string result_payload);
  /// Ships `fn` from node `from` to node `to` (from != to), to run at the
  /// network model's arrival time `due`: through the link's ordered queue
  /// on the receiver's workers in real mode, as a timed event under the
  /// simulator.
  void Transmit(SiloId from, SiloId to, Micros due, std::function<void()> fn);

  const RuntimeOptions options_;
  std::vector<Executor*> silo_executors_;
  Executor* client_executor_;
  SystemKv* system_kv_;

  /// Declared before every subsystem that registers metrics or records
  /// spans/flight events, so it outlives all of them.
  MetricsRegistry metrics_;
  Tracer tracer_;
  FlightRecorder flight_;
  MetricsTimeline timeline_;

  Directory directory_;
  NetworkModel network_;
  /// One Link per directed pair of nodes, at (from + 1) * (num_silos + 1) +
  /// (to + 1) so the client node is index 0; empty under the simulator.
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Silo>> silos_;
  std::unique_ptr<MembershipService> membership_;
  std::atomic<FaultInjector*> fault_injector_{nullptr};

  /// Serializes evictions (the failure detector may fire on several silo
  /// executors at once) and makes KillSilo/EvictSilo idempotent.
  std::mutex evict_mu_;
  std::mutex pending_mu_;
  std::unordered_map<uint64_t, PendingCall> pending_calls_;
  std::atomic<uint64_t> next_call_id_{0};

  // Robustness and wire-lane counters, registry-backed ("cluster.*" /
  // "wire.*" series); bound once in the constructor.
  Counter* dead_letters_;
  Counter* auto_evictions_;
  Counter* failover_resubmitted_;
  Counter* failover_failed_;
  Counter* deadline_timeouts_;
  Counter* no_live_silo_rejects_;

  Counter* local_closure_sends_;
  Counter* wire_requests_;
  Counter* wire_request_bytes_;
  Counter* wire_replies_;
  Counter* wire_reply_bytes_;
  Counter* wire_decode_failures_;
  /// Cross-node sends refused for want of a wire registration; the first
  /// refusal per actor type is also logged.
  Counter* wire_unregistered_sends_;
  std::mutex unregistered_logged_mu_;
  std::unordered_set<std::string> unregistered_logged_;

  ReminderService reminders_;
  OverloadController controller_;

  mutable std::mutex mu_;
  /// Node-based, so the records Silo activations point at never move.
  std::unordered_map<std::string, ActorType> types_;
  std::unordered_map<std::string, std::shared_ptr<StateStorage>> storages_;
  /// One idle-sweep loop per silo, and the metrics sampler.
  std::vector<PeriodicTask> idle_scanners_;
  PeriodicTask sampler_;
  /// Process-wide PromisesLeaked() at construction; Stop() publishes the
  /// lifetime delta as the "runtime.leaked_promises" gauge, so a run that
  /// dropped a continuation on the floor is visible in the registry.
  const int64_t promise_leak_baseline_ = PromisesLeaked();
  bool stopped_ = false;
};

/// Convenience owner of a real-mode cluster: thread-pool executors (one per
/// silo plus a client pool) and the Cluster itself.
class RealClusterHandle {
 public:
  explicit RealClusterHandle(const RuntimeOptions& options,
                             SystemKv* system_kv = nullptr);
  ~RealClusterHandle();

  Cluster& cluster() { return *cluster_; }
  Cluster* operator->() { return cluster_.get(); }

  /// Stops the cluster and joins all threads.
  void Shutdown();

 private:
  std::vector<std::unique_ptr<Executor>> executors_;
  std::unique_ptr<Executor> client_executor_;
  std::unique_ptr<Cluster> cluster_;
};

}  // namespace aodb

#endif  // AODB_ACTOR_CLUSTER_H_
