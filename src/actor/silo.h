// A silo hosts activations of virtual actors: it owns the activation catalog
// for its node, drives turn-based message processing on its executor, and
// performs idle deactivation. One silo models one server (the paper deploys
// one Orleans silo per EC2 instance).

#ifndef AODB_ACTOR_SILO_H_
#define AODB_ACTOR_SILO_H_

#include <atomic>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "actor/actor.h"
#include "actor/envelope.h"
#include "actor/executor.h"

namespace aodb {

class Cluster;
class ConcurrentHistogram;
class Counter;
class Gauge;

using ActorFactory = std::function<std::unique_ptr<ActorBase>(const ActorId&)>;

/// One registered actor type (Cluster::RegisterActorType): how to construct
/// an activation, and the type's "mailbox.depth.<type>" gauge and
/// "turn.queue_wait_us.<type>" / "turn.exec_us.<type>" histograms. A silo
/// looks it up once per activation, and the activation keeps it.
struct ActorType {
  ActorFactory factory;
  Gauge* mailbox_depth = nullptr;
  ConcurrentHistogram* queue_wait = nullptr;
  ConcurrentHistogram* turn_exec = nullptr;
};

/// Counters exposed for tests and benchmark reporting.
struct SiloStats {
  int64_t messages_processed = 0;
  int64_t activations_created = 0;
  int64_t activations_removed = 0;
  /// Activations deactivated by the working-set limit (directory entry kept
  /// and marked paged).
  int64_t activations_paged_out = 0;
  /// LRU entries examined across all SweepIdle calls. The sweep walks the
  /// LRU oldest-first and stops at the first fresh entry, so this grows with
  /// the number of STALE activations, not the resident count — the
  /// regression test in scale_paging asserts exactly that.
  int64_t sweep_examined = 0;
};

/// Hosts and executes actor activations on one executor.
///
/// Thread-safe: Deliver may be called from any thread; actor turns are
/// serialized per activation (at most one in flight), so actor code itself
/// never needs locks.
class Silo {
 public:
  Silo(SiloId id, Cluster* cluster, Executor* executor);

  SiloId id() const { return id_; }
  Executor* executor() const { return executor_; }

  /// Enqueues a message for its target activation, creating (activating)
  /// the actor if needed. Re-routes through the cluster if the activation
  /// is closing. Under overload the message may instead be rejected with
  /// Status::Overloaded: silo-wide shedding by MessagePriority past the
  /// configured watermarks, and per-activation bounded mailboxes
  /// (OverloadOptions::max_mailbox_depth).
  void Deliver(Envelope env);

  /// Total envelopes currently queued across this silo's mailboxes (the
  /// shed watermarks and the hot-actor controller read this).
  int64_t QueuedEnvelopes() const {
    return queued_.load(std::memory_order_relaxed);
  }

  /// The deepest migration-eligible activation (queue depth >= min_depth;
  /// not loading, closing, or already marked for migration), or nullopt.
  struct HotActivation {
    ActorId id;
    int64_t depth = 0;
  };
  std::optional<HotActivation> HottestActivation(int min_depth) const;

  /// The `n` deepest live activations (by current mailbox depth), deepest
  /// first — the postmortem bundle's per-silo hot-actor summary. Empty on a
  /// dead silo.
  std::vector<HotActivation> TopActivations(size_t n) const;

  /// Initiates live migration of an activation to silo `to`: the current
  /// turn (if any) finishes, OnDeactivate flushes state, the directory
  /// entry moves to `to`, and queued + subsequent messages re-route there,
  /// re-activating the actor from persisted state. Returns false when the
  /// actor is not activated here or is loading / already closing (the
  /// controller simply retries on a later scan).
  bool RequestMigration(const ActorId& id, SiloId to);

  /// Deactivates activations idle for at least `idle_timeout_us`.
  /// Returns the number of deactivations initiated.
  int SweepIdle(Micros idle_timeout_us);

  /// Initiates deactivation of every idle activation (used at shutdown to
  /// flush persistent state). Completes when all initiated deactivations
  /// have finished. Activations with queued work are skipped.
  Future<Status> DeactivateAll();

  /// Crashes this silo: every activation is closed WITHOUT running
  /// OnDeactivate (no state flush — that is the point of the fault), queued
  /// messages fail with Unavailable, and subsequent deliveries are rejected
  /// until Restart. Use Cluster::KillSilo, which also purges the directory.
  /// Returns the number of dead letters: discarded envelopes (mailbox and
  /// wedge backlog) that had no failure hook to notify anyone with.
  int64_t Kill();

  /// Brings a killed silo back as an empty node; actors placed here after
  /// restart activate fresh from persisted state. Clears any wedge.
  void Restart();

  /// False between Kill() and Restart().
  bool alive() const { return alive_.load(std::memory_order_acquire); }

  /// Chaos hook modeling an unannounced hang (GC death spiral, wedged
  /// executor): a wedged silo accepts deliveries but never processes them —
  /// neither `fn` nor `fail` runs, so without failure detection callers
  /// block forever. The membership subsystem must notice (the wedged silo
  /// stops acking probes and renewing its lease) and evict it; eviction
  /// fails the backlog like a crash. Cleared by Restart().
  void SetWedged(bool wedged) {
    wedged_.store(wedged, std::memory_order_release);
  }
  bool wedged() const { return wedged_.load(std::memory_order_acquire); }

  size_t ActivationCount() const;
  SiloStats Stats() const;

  /// Ids of activations that currently CLAIM this actor's single-activation
  /// slot: loading, idle, scheduled, or running. Closing activations
  /// (kDeactivating/kClosed) are excluded — their directory entry may
  /// legitimately already point at a migration target. Empty on a dead
  /// silo. Used by the DST invariant checkers (sim/explore) to assert
  /// exactly one live activation per actor id across the cluster.
  std::vector<ActorId> LiveActivations() const;

 private:
  enum class ActState {
    kLoading,       // OnActivate in progress; messages queue up.
    kIdle,          // No message in flight.
    kScheduled,     // A turn has been posted to the executor.
    kRunning,       // A turn is executing.
    kDeactivating,  // OnDeactivate in progress; messages queue for re-route.
    kClosed,        // Removed; queued messages get re-routed.
  };

  struct Activation {
    Activation(ActorId id_in, const ActorType* type_in)
        : id(std::move(id_in)), type(type_in) {}
    const ActorId id;
    /// Null for a type nobody registered: BeginActivate then fails the
    /// activation before any turn runs.
    const ActorType* const type;
    std::mutex mu;
    std::unique_ptr<ActorBase> actor;
    std::deque<Envelope> mailbox;
    ActState state = ActState::kLoading;
    /// Migration target (kNoSilo = none), guarded by mu. Set by
    /// RequestMigration; a running/scheduled activation transitions to
    /// kDeactivating at the end of its current turn — directly from
    /// kRunning, never through kIdle, so the idle sweeper cannot race the
    /// move (both initiators require a specific prior state under mu).
    SiloId migrate_to = kNoSilo;
    /// Last turn-completion time. Atomic (relaxed) so the idle sweeper can
    /// pre-filter candidates without taking every activation's mu.
    std::atomic<Micros> last_active{0};
    /// True while this activation is deactivating because the working-set
    /// limit evicted it (as opposed to idle timeout / migration / shutdown):
    /// FinishDeactivation then KEEPS the directory entry and marks it paged.
    /// Guarded by mu (set only under a successful kIdle claim).
    bool page_out = false;
    /// True from creation until the first turn when this activation was
    /// created for a message to a paged-out (registered but cold) actor.
    /// BeginActivate measures the storage-load latency; the first
    /// ProcessEnvelope measures the end-to-end queue wait. Both fields are
    /// only touched on the activation's serialized create/turn path.
    bool fault_in = false;
    Micros fault_start_us = 0;
    /// Position in the silo's recency list (valid iff in_lru). Guarded by
    /// the SILO's mu_, not this mu — the list is silo state.
    std::list<std::shared_ptr<Activation>>::iterator lru_it;
    bool in_lru = false;
    /// When this activation last moved to the recent end of the list.
    /// Advisory (relaxed): read without mu_ to skip the lock + splice for
    /// activations touched within the throttle window, so hot actors do
    /// not serialize every turn on the silo-wide mutex. Written under mu_.
    std::atomic<Micros> lru_stamp{0};
  };
  using ActivationPtr = std::shared_ptr<Activation>;

  void BeginActivate(const ActivationPtr& act);
  void PostTurn(const ActivationPtr& act, Micros cost_us);
  /// One scheduled turn: drains up to turn_batch_ envelopes from the
  /// activation's mailbox (each via ProcessEnvelope), then either goes idle
  /// or re-posts.
  void RunTurn(const ActivationPtr& act);
  /// Applies a single dequeued envelope to the activation: deadline-expiry
  /// drop, tracing, deadline propagation, profiling, slow-turn logging.
  void ProcessEnvelope(const ActivationPtr& act, Envelope& env);
  /// Runs OnDeactivate and removes the activation. Precondition: state was
  /// transitioned to kDeactivating by the caller. When the activation was
  /// marked for migration, the directory entry is moved to the target silo
  /// instead of removed, so the rerouted mailbox and all subsequent sends
  /// re-activate the actor there.
  void FinishDeactivation(const ActivationPtr& act,
                          std::function<void(Status)> done);
  void Reroute(Envelope env);
  /// --- Working-set (LRU) maintenance. All *Locked helpers require mu_. ---
  /// Appends a new activation at the most-recent end.
  void LruPushBackLocked(const ActivationPtr& act);
  /// Moves an existing entry to the most-recent end (O(1) splice).
  void LruTouchLocked(const ActivationPtr& act);
  /// Throttled touch for the per-turn hot path: recency only needs to be
  /// accurate to within the throttle window (idle timeouts and eviction
  /// decisions work on much coarser scales), so activations spliced within
  /// the last 100ms skip the silo-wide lock entirely.
  void LruTouchThrottled(const ActivationPtr& act, Micros now);
  /// Removes an entry (claimed for deactivation, failed load, or kill).
  void LruUnlinkLocked(const ActivationPtr& act);
  /// Activations counted against the resident cap: those claimed for
  /// page-out count as gone.
  int64_t ResidentLocked() const {
    return static_cast<int64_t>(catalog_.size()) - pending_page_outs_;
  }
  /// Posts one eviction pass to the executor unless one is already pending.
  void MaybeScheduleEviction();
  /// Evicts least-recently-active idle activations (kIdle + empty mailbox,
  /// claimed under each victim's mu exactly like the idle sweeper) until the
  /// cap is satisfied or nothing is claimable. Busy entries are re-queued
  /// at the recent end so the pass is O(evicted + skipped-this-pass), never
  /// O(catalog).
  void RunEvictionPass();
  /// Current mailbox depth of one activation (takes its lock briefly; only
  /// called on rare warn/flight-event paths, never per message).
  static int64_t MailboxDepth(const ActivationPtr& act);
  /// Adds `n` (negative: drained) to the silo's queued-envelope count and
  /// to the depth gauge of `act`'s type.
  void CountQueued(const Activation& act, int64_t n);

  const SiloId id_;
  Cluster* const cluster_;
  Executor* const executor_;
  /// Envelopes one turn may drain (>= 1; 1 under the simulator — see
  /// RuntimeOptions::max_turn_batch).
  const int turn_batch_;
  /// Shed watermarks resolved from OverloadOptions at construction
  /// (hard watermark defaults to 2x the soft one). 0 = shedding off.
  const int64_t shed_watermark_;
  const int64_t shed_hard_watermark_;
  /// Silo-wide resident-activation cap (0 = unbounded) from
  /// RuntimeOptions::max_resident_activations.
  const int max_resident_;
  /// Per-activation mailbox cap (0 = unbounded) from
  /// OverloadOptions::max_mailbox_depth.
  const int max_mailbox_depth_;
  /// The cluster registry's "overload.*" and "activation.*" series that
  /// only silos record.
  Counter* const shed_telemetry_;
  Counter* const shed_query_;
  Counter* const mailbox_rejects_;
  Counter* const migrations_;
  Counter* const paged_out_;
  Counter* const faults_;
  ConcurrentHistogram* const fault_load_;
  ConcurrentHistogram* const fault_wait_;
  std::atomic<bool> alive_{true};
  std::atomic<bool> wedged_{false};
  /// Off the silo lock: bumped once per turn batch, not under mu_.
  std::atomic<int64_t> messages_processed_{0};
  /// Envelopes queued across all mailboxes on this silo; the shed decision
  /// reads it without any lock.
  std::atomic<int64_t> queued_{0};

  mutable std::mutex mu_;
  /// Envelopes swallowed while wedged; failed en masse by Kill().
  std::deque<Envelope> wedge_backlog_;
  std::unordered_map<ActorId, ActivationPtr, ActorIdHash> catalog_;
  /// Recency list over catalog_ entries: least-recently-active at the front.
  /// Maintained from turn completions (splice-to-back), so both the idle
  /// sweep and paging eviction pop victims from the front in O(1) instead of
  /// scanning the catalog. Guarded by mu_.
  std::list<ActivationPtr> lru_;
  /// Activations claimed for page-out whose FinishDeactivation has not yet
  /// erased them from catalog_. Subtracted from the resident count so one
  /// eviction pass doesn't over-evict while deactivations are in flight.
  int64_t pending_page_outs_ = 0;
  /// Collapses bursts of over-cap inserts into one posted eviction pass.
  std::atomic<bool> eviction_scheduled_{false};
  /// Activations closed by Kill(). Retained (not destroyed) because
  /// in-flight turns, timers, and storage completions may still hold raw
  /// pointers into them; they are inert (kClosed) and are released when the
  /// silo itself is destroyed. This mirrors a crashed process whose memory
  /// simply ceases to matter.
  std::vector<ActivationPtr> zombies_;
  SiloStats stats_;
};

}  // namespace aodb

#endif  // AODB_ACTOR_SILO_H_
