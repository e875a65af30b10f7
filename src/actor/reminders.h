// Persistent reminders: named periodic ticks per actor, kept in the system
// store when one is wired so they survive restarts.

#ifndef AODB_ACTOR_REMINDERS_H_
#define AODB_ACTOR_REMINDERS_H_

#include <mutex>
#include <string>
#include <unordered_map>

#include "actor/actor_id.h"
#include "actor/periodic_task.h"
#include "actor/system_kv.h"
#include "common/status.h"

namespace aodb {

class Cluster;
struct WireMethodInfo;

/// The reminder table. Ticks start on the client-node executor and reach
/// the actor as wire tells of ActorBase::ReceiveReminder (registered here
/// for every actor type), so a tick (re-)activates its target wherever the
/// directory places it.
class ReminderService {
 public:
  /// `system_kv` is optional; without it reminders are volatile.
  ReminderService(Cluster* cluster, SystemKv* system_kv);

  /// Registers, or replaces, a periodic reminder for an actor, persisted
  /// in the system store when there is one. A failed write leaves the
  /// table as it was.
  Status Register(const ActorId& id, const std::string& name,
                  Micros period_us);
  Status Unregister(const ActorId& id, const std::string& name);
  /// Restores reminders from the system store (after a restart).
  Status Load();
  /// Number of registered reminders.
  size_t Active() const;
  /// Stops every reminder's ticks; the table keeps its entries.
  void Stop();

 private:
  /// Starts (or restarts) the ticks of one reminder. Requires mu_.
  void ScheduleLocked(const std::string& key, const ActorId& id,
                      const std::string& name, Micros period_us);

  Cluster* const cluster_;
  SystemKv* const system_kv_;
  /// The runtime's registration of ActorBase::ReceiveReminder.
  const WireMethodInfo* receive_;

  mutable std::mutex mu_;
  /// Keyed by the system-store key, rem/<type>/<key>/<name>.
  std::unordered_map<std::string, PeriodicTask> tasks_;
};

}  // namespace aodb

#endif  // AODB_ACTOR_REMINDERS_H_
