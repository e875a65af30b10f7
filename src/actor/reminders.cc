#include "actor/reminders.h"

#include <cassert>
#include <tuple>

#include "actor/cluster.h"
#include "actor/method_registry.h"
#include "common/codec.h"

namespace aodb {

namespace {

std::string ReminderKey(const ActorId& id, const std::string& name) {
  return "rem/" + id.type + "/" + id.key + "/" + name;
}

}  // namespace

ReminderService::ReminderService(Cluster* cluster, SystemKv* system_kv)
    : cluster_(cluster), system_kv_(system_kv) {
  MethodRegistry& registry = MethodRegistry::Global();
  Status st = registry.RegisterForAllTypes(&ActorBase::ReceiveReminder,
                                           "ActorBase.ReceiveReminder");
  assert(st.ok());
  (void)st;
  receive_ = registry.Find(&ActorBase::ReceiveReminder);
}

Status ReminderService::Register(const ActorId& id, const std::string& name,
                                 Micros period_us) {
  if (period_us <= 0) return Status::InvalidArgument("period must be > 0");
  const std::string key = ReminderKey(id, name);
  if (system_kv_ != nullptr) {
    BufWriter w;
    w.PutVarint(static_cast<uint64_t>(period_us));
    AODB_RETURN_NOT_OK(system_kv_->Put(key, w.Release()));
  }
  std::lock_guard<std::mutex> lock(mu_);
  ScheduleLocked(key, id, name, period_us);
  return Status::OK();
}

Status ReminderService::Unregister(const ActorId& id,
                                   const std::string& name) {
  const std::string key = ReminderKey(id, name);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.erase(key) == 0) return Status::NotFound("no such reminder");
  }
  if (system_kv_ != nullptr) {
    AODB_RETURN_NOT_OK(system_kv_->Delete(key));
  }
  return Status::OK();
}

Status ReminderService::Load() {
  if (system_kv_ == nullptr) return Status::OK();
  auto listed = system_kv_->List("rem/");
  if (!listed.ok()) return listed.status();
  for (const auto& [key, value] : listed.value()) {
    // Key layout: rem/<type>/<key>/<name>.
    size_t p1 = key.find('/', 4);
    if (p1 == std::string::npos) continue;
    size_t p2 = key.rfind('/');
    if (p2 == std::string::npos || p2 <= p1) continue;
    ActorId id{key.substr(4, p1 - 4), key.substr(p1 + 1, p2 - p1 - 1)};
    BufReader r(value);
    uint64_t period = 0;
    if (!r.GetVarint(&period).ok()) continue;
    std::lock_guard<std::mutex> lock(mu_);
    ScheduleLocked(key, id, key.substr(p2 + 1), static_cast<Micros>(period));
  }
  return Status::OK();
}

size_t ReminderService::Active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_.size();
}

void ReminderService::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, task] : tasks_) task.Cancel();
}

void ReminderService::ScheduleLocked(const std::string& key, const ActorId& id,
                                     const std::string& name,
                                     Micros period_us) {
  tasks_[key].Start(cluster_->client_executor(), period_us, [this, id, name] {
    Envelope env;
    env.target = id;
    env.caller_silo = kClientSiloId;
    env.cost_us = kDefaultMessageCostUs;
    env.wire = receive_;
    env.wire_encode_args = [name] {
      BufWriter w;
      WireEncodeTuple(&w, std::make_tuple(name));
      return w.Release();
    };
    cluster_->Send(std::move(env));
  });
}

}  // namespace aodb
