#include "actor/actor.h"

#include "actor/cluster.h"

namespace aodb {

ActorContext::ActorContext(ActorId self, SiloId silo, Cluster* cluster,
                           Executor* executor)
    : self_(std::move(self)),
      silo_(silo),
      cluster_(cluster),
      executor_(executor),
      rng_(ActorIdHash()(self_) ^ cluster->options().seed) {}

Micros ActorContext::Now() const { return executor_->clock()->Now(); }

void ActorContext::SetTimer(const std::string& name, Micros period_us,
                            Micros tick_cost_us) {
  Cluster* cluster = cluster_;
  ActorId self = self_;
  SiloId silo = silo_;
  timers_[name].Start(
      executor_, period_us, [cluster, self, silo, name, tick_cost_us] {
        Envelope env;
        env.target = self;
        env.caller_silo = silo;
        env.cost_us = tick_cost_us;
        env.fn = [name](ActorBase& a) { a.OnTimer(name); };
        cluster->Send(std::move(env));
      });
}

void ActorContext::CancelTimer(const std::string& name) { timers_.erase(name); }

void ActorContext::CancelAllTimers() { timers_.clear(); }

Status ActorContext::RegisterReminder(const std::string& name,
                                      Micros period_us) {
  return cluster_->reminders().Register(self_, name, period_us);
}

Status ActorContext::UnregisterReminder(const std::string& name) {
  return cluster_->reminders().Unregister(self_, name);
}

StateStorage* ActorContext::storage(const std::string& provider) const {
  return cluster_->GetStateStorage(provider);
}

}  // namespace aodb
