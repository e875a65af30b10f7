// Actor base class and the per-activation runtime context.
//
// Actors encapsulate private state and interact only via asynchronous
// messages; the runtime guarantees turn-based execution (at most one message
// being processed per activation at any time). Actor classes derive from
// ActorBase (or storage::PersistentActor for durable state), declare a
// `static constexpr char kTypeName[]`, and expose public methods invoked
// through ActorRef<T>::Call / Tell.

#ifndef AODB_ACTOR_ACTOR_H_
#define AODB_ACTOR_ACTOR_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "actor/actor_id.h"
#include "actor/executor.h"
#include "actor/future.h"
#include "actor/periodic_task.h"
#include "common/rng.h"
#include "common/status.h"

namespace aodb {

class ActorBase;
class Cluster;
class StateStorage;
template <typename T>
class ActorRef;

/// Runtime services available to an activated actor: identity, time,
/// messaging to other actors, timers, and storage providers.
class ActorContext {
 public:
  ActorContext(ActorId self, SiloId silo, Cluster* cluster,
               Executor* executor);

  const ActorId& self() const { return self_; }
  SiloId silo() const { return silo_; }
  Cluster* cluster() const { return cluster_; }
  Executor* executor() const { return executor_; }

  /// Current time (virtual time in simulation mode).
  Micros Now() const;

  /// Typed reference to another virtual actor (activating it on first use).
  /// Defined in actor/actor_ref.h.
  template <typename T>
  ActorRef<T> Ref(const std::string& key) const;

  /// Reference viewed through a base interface T (e.g. TransactionalActor)
  /// while addressing the concrete registered type name. Defined in
  /// actor/actor_ref.h.
  template <typename T>
  ActorRef<T> RefAs(const std::string& type, const std::string& key) const;

  /// The principal attached to the message currently being processed.
  /// Application access-control checks read this.
  const Principal& caller() const { return caller_; }

  /// Starts a periodic timer; each tick delivers a message to this actor
  /// invoking ActorBase::OnTimer(name). Timers die with the activation.
  void SetTimer(const std::string& name, Micros period_us,
                Micros tick_cost_us = 50);
  void CancelTimer(const std::string& name);
  void CancelAllTimers();

  /// Registers a persistent reminder (survives deactivation and, with a
  /// durable system store, restarts). Fires ActorBase::ReceiveReminder.
  Status RegisterReminder(const std::string& name, Micros period_us);
  Status UnregisterReminder(const std::string& name);

  /// Named grain-state storage provider registered on the cluster, or
  /// nullptr if absent.
  StateStorage* storage(const std::string& provider) const;

  /// Deterministic per-activation RNG.
  Rng& rng() { return rng_; }

 private:
  friend class Silo;

  ActorId self_;
  SiloId silo_;
  Cluster* cluster_;
  Executor* executor_;
  Principal caller_;
  Rng rng_;
  std::unordered_map<std::string, PeriodicTask> timers_;
};

/// Base class of all virtual actors.
class ActorBase {
 public:
  virtual ~ActorBase() = default;

  /// Called once when the activation is created, before any message is
  /// processed. Returns asynchronously (persistent actors load state here).
  /// A non-OK result fails all pending messages and closes the activation.
  virtual Future<Status> OnActivate() {
    return Future<Status>::FromValue(Status::OK());
  }

  /// Called when the runtime deactivates the actor (idle collection or
  /// shutdown). Persistent actors flush state here.
  virtual Future<Status> OnDeactivate() {
    return Future<Status>::FromValue(Status::OK());
  }

  /// Periodic timer callback (see ActorContext::SetTimer).
  virtual void OnTimer(const std::string& name) { (void)name; }

  /// Persistent reminder callback (see ActorContext::RegisterReminder).
  virtual void ReceiveReminder(const std::string& name) { (void)name; }

  /// The activation's runtime context. Valid from just before OnActivate
  /// until destruction.
  ActorContext& ctx() {
    return *context_;
  }
  const ActorContext& ctx() const { return *context_; }

  /// Runtime wiring; called by the silo during activation.
  void BindContext(std::unique_ptr<ActorContext> context) {
    context_ = std::move(context);
  }
  bool HasContext() const { return context_ != nullptr; }

 private:
  std::unique_ptr<ActorContext> context_;
};

}  // namespace aodb

#endif  // AODB_ACTOR_ACTOR_H_
