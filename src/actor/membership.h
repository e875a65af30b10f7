// Cluster membership & automatic failure detection, modeled on the Orleans
// membership protocol the paper's deployment relies on: every silo keeps a
// lease row in the system store (the role Amazon RDS plays for Orleans),
// renews it on a heartbeat timer, and probes a ring of peer silos. Missed
// probes accrue suspicion votes in the shared table; once a quorum of
// distinct silos suspects a target — or its lease has expired and at least
// one silo suspects it — the target is declared dead and evicted through
// Cluster::EvictSilo, with no fault-plan involvement.
//
// The point of this subsystem is the *unannounced* failure: a wedged
// executor or suppressed heartbeat that Cluster::KillSilo never announces.
// Detection latency is bounded by the probe cadence (probe_period_us *
// suspect_after_missed + probe_timeout_us per voter) with the lease
// expiry as the backstop. See DESIGN.md "Membership & failure detection".

#ifndef AODB_ACTOR_MEMBERSHIP_H_
#define AODB_ACTOR_MEMBERSHIP_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "actor/actor_id.h"
#include "actor/executor.h"
#include "actor/periodic_task.h"
#include "actor/runtime_options.h"
#include "actor/system_kv.h"
#include "common/clock.h"
#include "common/status.h"

namespace aodb {

class Cluster;

/// One silo's decoded lease row (`mbr/lease/<silo>` in the system store).
struct LeaseRow {
  /// Bumped on every restart, so stale suspicion of a previous incarnation
  /// never counts against the rejoined silo.
  uint64_t incarnation = 0;
  /// Absolute expiry on the cluster clock; a row past this is expired.
  Micros expiry_us = 0;
};

/// Monotonic failure-detector counters (tests, bench reporting).
struct MembershipStats {
  int64_t lease_renewals = 0;
  int64_t probes_sent = 0;
  int64_t probes_missed = 0;
  int64_t suspicions_filed = 0;
  int64_t suspicions_withdrawn = 0;
  /// Automatic declare-dead decisions made by this detector.
  int64_t evictions = 0;
};

/// The failure detector: one heartbeat agent and one probe agent per silo,
/// scheduled on that silo's own executor (so a wedged silo convincingly
/// stops heartbeating), sharing a lease/suspicion table in the system
/// store. Falls back to an in-process table when no SystemKv is wired.
///
/// Thread-safe; deterministic under the discrete-event simulator (agent
/// timers are plain executor events, probe delays come from the seeded
/// network model).
class MembershipService {
 public:
  MembershipService(Cluster* cluster, SystemKv* kv);

  /// Writes the initial lease rows and starts every silo's heartbeat and
  /// probe loops. Call once.
  void Start();
  /// Permanently stops all agent loops (idempotent).
  void Stop();

  // --- Cluster lifecycle hooks --------------------------------------------

  /// A silo left the cluster (announced kill or automatic eviction): its
  /// suspicion votes are cleared so a later rejoin starts clean.
  void NoteEvicted(SiloId id);
  /// A silo rejoined: bump its incarnation, renew its lease, clear all
  /// suspicion state involving it (as voter and as target).
  void NoteRestarted(SiloId id);

  // --- Chaos hooks ---------------------------------------------------------

  /// Gray failure: a suppressed silo keeps serving application traffic but
  /// its membership agent goes dark — no lease renewals, no probe acks, no
  /// outgoing probes. The detector must evict it anyway. Cleared by
  /// NoteRestarted.
  void SuppressSilo(SiloId id, bool suppressed);
  bool Suppressed(SiloId id) const;

  // --- Introspection -------------------------------------------------------

  /// Decoded lease row, or NotFound.
  Result<LeaseRow> ReadLease(SiloId id) const;
  /// Distinct silos currently suspecting `id` in the table.
  int SuspicionCount(SiloId id) const;
  uint64_t Incarnation(SiloId id) const;
  /// Time this detector last declared `id` dead (0 = never). Used by the
  /// chaos bench to measure detection latency.
  Micros LastEvictionAt(SiloId id) const;
  MembershipStats stats() const;

 private:
  // Agent bodies (run on the owning silo's executor).
  void HeartbeatTick(SiloId id);
  void ProbeTick(SiloId id);
  void SendProbe(SiloId from, SiloId to);
  void OnProbeAck(SiloId from, SiloId to);
  void OnProbeMissed(SiloId from, SiloId to);
  /// Applies the declare-dead rule for `target`; evicts when it fires.
  void EvaluateEviction(SiloId target);

  void RenewLease(SiloId id);
  void ClearSuspicions(SiloId target);

  static std::string LeaseKey(SiloId id);
  static std::string SuspectKey(SiloId target, SiloId by);
  static std::string SuspectPrefix(SiloId target);

  // Table access, routed to the system store or the in-process fallback.
  void TablePut(const std::string& key, const std::string& value);
  Result<std::string> TableGet(const std::string& key) const;
  void TableDelete(const std::string& key);
  Result<std::vector<std::pair<std::string, std::string>>> TableList(
      const std::string& prefix) const;

  Cluster* const cluster_;
  SystemKv* const kv_;
  const MembershipOptions opts_;
  const int num_silos_;

  /// Liveness switch of in-flight probes and acks; shared with their
  /// closures so Stop() works while they are on the wire.
  std::shared_ptr<std::atomic<bool>> running_;
  /// Every silo's heartbeat and probe loops.
  std::vector<PeriodicTask> loops_;

  mutable std::mutex mu_;
  /// In-process fallback table (kv_ == nullptr).
  std::map<std::string, std::string> local_table_;
  std::vector<uint64_t> incarnation_;
  std::vector<char> suppressed_;
  /// missed_[prober][target]: consecutive missed probes.
  std::vector<std::vector<int>> missed_;
  /// suspected_[prober][target]: this prober has a vote filed in the table.
  std::vector<std::vector<char>> suspected_;
  std::vector<Micros> eviction_at_;

  std::atomic<int64_t> lease_renewals_{0};
  std::atomic<int64_t> probes_sent_{0};
  std::atomic<int64_t> probes_missed_{0};
  std::atomic<int64_t> suspicions_filed_{0};
  std::atomic<int64_t> suspicions_withdrawn_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace aodb

#endif  // AODB_ACTOR_MEMBERSHIP_H_
