// The hot-actor controller: live-migrates the deepest activation of the
// most loaded silo to the least loaded one (see DESIGN.md "Overload
// management").

#ifndef AODB_ACTOR_OVERLOAD_CONTROLLER_H_
#define AODB_ACTOR_OVERLOAD_CONTROLLER_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "actor/periodic_task.h"
#include "actor/runtime_options.h"

namespace aodb {

class Cluster;

/// Every OverloadOptions::scan_interval_us, on the client-node executor
/// (the controller is cluster-wide, not per silo), compares the silos'
/// smoothed queued-envelope totals and migrates one hot activation when
/// the gap justifies it.
class OverloadController {
 public:
  explicit OverloadController(Cluster* cluster);

  /// Starts the periodic scan (no-op unless
  /// options.overload.enable_hot_migration).
  void Start();
  void Stop();

  /// One scan: what each tick runs. Ticks are serialized on the client
  /// executor; a direct call must not overlap them.
  void Rebalance();

 private:
  Cluster* const cluster_;
  const OverloadOptions opts_;
  std::mutex task_mu_;
  PeriodicTask task_;
  /// Touched only by Rebalance: the smoothed per-silo queued-envelope
  /// loads, and when each recently moved actor and recently targeted
  /// destination silo was last picked.
  std::vector<double> ewma_;
  std::unordered_map<std::string, Micros> actor_cooldown_;
  std::unordered_map<int, Micros> dest_cooldown_;
};

}  // namespace aodb

#endif  // AODB_ACTOR_OVERLOAD_CONTROLLER_H_
