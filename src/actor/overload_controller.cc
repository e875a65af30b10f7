#include "actor/overload_controller.h"

#include "actor/cluster.h"
#include "common/logging.h"

namespace aodb {

OverloadController::OverloadController(Cluster* cluster)
    : cluster_(cluster), opts_(cluster->options().overload) {}

void OverloadController::Start() {
  if (!opts_.enable_hot_migration) return;
  std::lock_guard<std::mutex> lock(task_mu_);
  task_.Start(cluster_->client_executor(), opts_.scan_interval_us,
              [this] { Rebalance(); });
}

void OverloadController::Stop() {
  std::lock_guard<std::mutex> lock(task_mu_);
  task_.Cancel();
}

void OverloadController::Rebalance() {
  // Instantaneous queued counts are noisy — one arrival burst can make the
  // steady-state-coolest silo sample as the hottest for a single scan — so
  // the hottest/coolest decision runs on an EWMA across scans instead of the
  // raw sample.
  const Micros now = cluster_->clock()->Now();
  const Micros cooldown = opts_.migration_cooldown_us;
  const int num_silos = cluster_->num_silos();
  if (ewma_.size() != static_cast<size_t>(num_silos)) {
    ewma_.assign(num_silos, 0.0);
  }
  SiloId hottest = kNoSilo;
  SiloId coolest = kNoSilo;
  double max_load = -1.0;
  double min_load = 0.0;
  for (int i = 0; i < num_silos; ++i) {
    Silo* silo = cluster_->silo(static_cast<SiloId>(i));
    if (!silo->alive()) continue;
    auto queued = static_cast<double>(silo->QueuedEnvelopes());
    double load = 0.5 * ewma_[i] + 0.5 * queued;
    ewma_[i] = load;
    if (load > max_load) {
      max_load = load;
      hottest = static_cast<SiloId>(i);
    }
    // A silo that just received a migration still samples as cool (the
    // moved actor's traffic has not reached it yet); excluding it as a
    // destination for the cooldown keeps the controller from piling
    // several hot actors onto one silo and ping-ponging them afterwards.
    auto dest_it = dest_cooldown_.find(i);
    if (dest_it != dest_cooldown_.end() && now - dest_it->second < cooldown) {
      continue;
    }
    if (coolest == kNoSilo || load < min_load) {
      min_load = load;
      coolest = static_cast<SiloId>(i);
    }
  }
  if (hottest == kNoSilo || coolest == kNoSilo || hottest == coolest) return;
  if (max_load - min_load < static_cast<double>(opts_.min_load_delta)) {
    return;
  }
  Silo* source = cluster_->silo(hottest);
  auto hot = source->HottestActivation(opts_.hot_actor_min_depth);
  if (!hot) return;
  // The same actor cannot be moved twice in quick succession: every move
  // pauses the actor and reroutes its mail, so re-migrating on residual
  // backlog turns the controller itself into an overload source.
  const std::string key = hot->id.ToString();
  auto moved_it = actor_cooldown_.find(key);
  if (moved_it != actor_cooldown_.end() && now - moved_it->second < cooldown) {
    return;
  }
  if (source->RequestMigration(hot->id, coolest)) {
    actor_cooldown_[key] = now;
    dest_cooldown_[coolest] = now;
    AODB_LOG(Info,
             "overload controller migrating hot actor %s: silo %d (%.0f "
             "load) -> silo %d (%.0f load), mailbox depth %lld",
             key.c_str(), static_cast<int>(hottest), max_load,
             static_cast<int>(coolest), min_load,
             static_cast<long long>(hot->depth));
    // Drop expired cooldown entries so the maps stay proportional to the
    // set of recently moved actors, not every actor ever moved.
    for (auto it = actor_cooldown_.begin(); it != actor_cooldown_.end();) {
      if (now - it->second >= cooldown) {
        it = actor_cooldown_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

}  // namespace aodb
