#include "actor/membership.h"

#include <algorithm>

#include "actor/cluster.h"
#include "common/codec.h"
#include "common/logging.h"

namespace aodb {

namespace {
/// Wire size charged for one probe or ack (a tiny UDP-style datagram).
constexpr int64_t kProbeBytes = 32;
}  // namespace

MembershipService::MembershipService(Cluster* cluster, SystemKv* kv)
    : cluster_(cluster),
      kv_(kv),
      opts_(cluster->options().membership),
      num_silos_(cluster->num_silos()),
      running_(std::make_shared<std::atomic<bool>>(false)),
      incarnation_(static_cast<size_t>(num_silos_), 1),
      suppressed_(static_cast<size_t>(num_silos_), 0),
      missed_(static_cast<size_t>(num_silos_),
              std::vector<int>(static_cast<size_t>(num_silos_), 0)),
      suspected_(static_cast<size_t>(num_silos_),
                 std::vector<char>(static_cast<size_t>(num_silos_), 0)),
      eviction_at_(static_cast<size_t>(num_silos_), 0) {}

// --- Keys & table access -----------------------------------------------------

std::string MembershipService::LeaseKey(SiloId id) {
  return "mbr/lease/" + std::to_string(id);
}

std::string MembershipService::SuspectKey(SiloId target, SiloId by) {
  return SuspectPrefix(target) + std::to_string(by);
}

std::string MembershipService::SuspectPrefix(SiloId target) {
  return "mbr/suspect/" + std::to_string(target) + "/";
}

void MembershipService::TablePut(const std::string& key,
                                 const std::string& value) {
  if (kv_ != nullptr) {
    Status st = kv_->Put(key, value);
    // Table unavailability must not crash the detector; the next tick
    // retries (the lease just looks a little staler in the meantime).
    if (!st.ok()) {
      AODB_LOG(Warn, "membership table put %s failed: %s", key.c_str(),
               st.ToString().c_str());
    }
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  local_table_[key] = value;
}

Result<std::string> MembershipService::TableGet(const std::string& key) const {
  if (kv_ != nullptr) return kv_->Get(key);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = local_table_.find(key);
  if (it == local_table_.end()) {
    return Result<std::string>::FromError(Status::NotFound(key));
  }
  return Result<std::string>(it->second);
}

void MembershipService::TableDelete(const std::string& key) {
  if (kv_ != nullptr) {
    (void)kv_->Delete(key);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  local_table_.erase(key);
}

Result<std::vector<std::pair<std::string, std::string>>>
MembershipService::TableList(const std::string& prefix) const {
  if (kv_ != nullptr) return kv_->List(prefix);
  std::vector<std::pair<std::string, std::string>> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = local_table_.lower_bound(prefix); it != local_table_.end();
       ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first, it->second);
  }
  return Result<std::vector<std::pair<std::string, std::string>>>(
      std::move(out));
}

// --- Lifecycle ---------------------------------------------------------------

void MembershipService::Start() {
  bool expected = false;
  if (!running_->compare_exchange_strong(expected, true)) return;
  for (SiloId i = 0; i < num_silos_; ++i) {
    RenewLease(i);
    Executor* exec = cluster_->ExecutorFor(i);
    loops_.emplace_back().Start(exec, opts_.heartbeat_period_us,
                                [this, i] { HeartbeatTick(i); });
    loops_.emplace_back().Start(exec, opts_.probe_period_us,
                                [this, i] { ProbeTick(i); });
  }
}

void MembershipService::Stop() {
  running_->store(false);
  for (PeriodicTask& loop : loops_) loop.Cancel();
}

// --- Heartbeats --------------------------------------------------------------

void MembershipService::HeartbeatTick(SiloId id) {
  Silo* silo = cluster_->silo(id);
  // A dead, wedged, or suppressed silo does not renew its lease — that
  // silence is exactly what the lease-expiry backstop detects.
  if (!silo->alive() || silo->wedged() || Suppressed(id)) return;
  RenewLease(id);
}

void MembershipService::RenewLease(SiloId id) {
  Micros now = cluster_->ExecutorFor(id)->clock()->Now();
  LeaseRow row;
  {
    std::lock_guard<std::mutex> lock(mu_);
    row.incarnation = incarnation_[id];
  }
  row.expiry_us = now + opts_.lease_duration_us;
  BufWriter w;
  w.PutVarint(row.incarnation);
  w.PutVarint(static_cast<uint64_t>(row.expiry_us));
  TablePut(LeaseKey(id), w.Release());
  lease_renewals_.fetch_add(1, std::memory_order_relaxed);
}

Result<LeaseRow> MembershipService::ReadLease(SiloId id) const {
  auto raw = TableGet(LeaseKey(id));
  if (!raw.ok()) return Result<LeaseRow>::FromError(raw.status());
  BufReader r(raw.value());
  LeaseRow row;
  uint64_t expiry = 0;
  Status st = r.GetVarint(&row.incarnation);
  if (st.ok()) st = r.GetVarint(&expiry);
  if (!st.ok()) return Result<LeaseRow>::FromError(st);
  row.expiry_us = static_cast<Micros>(expiry);
  return Result<LeaseRow>(row);
}

// --- Probing -----------------------------------------------------------------

void MembershipService::ProbeTick(SiloId id) {
  Silo* silo = cluster_->silo(id);
  // Wedged/suppressed silos stop probing too: the whole membership agent is
  // what hung, not just the ack path.
  if (!silo->alive() || silo->wedged() || Suppressed(id)) return;
  int fanout = std::max(1, opts_.probe_fanout);
  std::vector<SiloId> targets;
  for (int k = 1; k < num_silos_ &&
                  static_cast<int>(targets.size()) < fanout;
       ++k) {
    SiloId t = static_cast<SiloId>((id + k) % num_silos_);
    if (cluster_->directory().SiloLive(t)) targets.push_back(t);
  }
  for (SiloId t : targets) SendProbe(id, t);
}

void MembershipService::SendProbe(SiloId from, SiloId to) {
  probes_sent_.fetch_add(1, std::memory_order_relaxed);
  auto acked = std::make_shared<std::atomic<bool>>(false);
  Cluster* c = cluster_;
  MembershipService* self = this;
  auto running = running_;
  Executor* from_exec = c->ExecutorFor(from);
  Executor* to_exec = c->ExecutorFor(to);
  // The probe rides the same network model as application traffic — which
  // includes the partition matrix: a severed from -> to link eats the probe,
  // and a severed to -> from link eats the ack. Either half produces a
  // missed probe at the prober, so asymmetric partitions surface as
  // one-sided suspicion that the quorum rule must refuse to act on alone.
  if (!c->network().Partitioned(from, to)) {
    Micros arrive = c->network().FifoArrival(from, to, kProbeBytes,
                                             to_exec->clock()->Now());
    to_exec->PostAt(arrive, [self, c, running, from, to, acked] {
      if (!running->load(std::memory_order_acquire)) return;
      Silo* target = c->silo(to);
      // Only a healthy membership agent acks: dead and wedged silos are
      // silent, and a suppressed (gray-failing) silo is silent here even
      // though it still serves application calls.
      if (!target->alive() || target->wedged() || self->Suppressed(to)) return;
      if (c->network().Partitioned(to, from)) return;  // Ack path severed.
      Executor* back = c->ExecutorFor(from);
      Micros back_arrive = c->network().FifoArrival(to, from, kProbeBytes,
                                                    back->clock()->Now());
      back->PostAt(back_arrive, [acked] {
        acked->store(true, std::memory_order_release);
      });
    });
  }
  from_exec->PostAfter(opts_.probe_timeout_us,
                       [self, running, from, to, acked] {
                         if (!running->load(std::memory_order_acquire)) return;
                         if (acked->load(std::memory_order_acquire)) {
                           self->OnProbeAck(from, to);
                         } else {
                           self->OnProbeMissed(from, to);
                         }
                       });
}

void MembershipService::OnProbeAck(SiloId from, SiloId to) {
  bool withdraw = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    missed_[from][to] = 0;
    if (suspected_[from][to]) {
      suspected_[from][to] = 0;
      withdraw = true;
    }
  }
  if (withdraw) {
    // The target recovered before eviction: retract this prober's vote so a
    // transient stall does not linger toward a later quorum.
    TableDelete(SuspectKey(to, from));
    suspicions_withdrawn_.fetch_add(1, std::memory_order_relaxed);
    AODB_LOG(Info, "silo %d withdrew suspicion of silo %d",
             static_cast<int>(from), static_cast<int>(to));
  }
}

void MembershipService::OnProbeMissed(SiloId from, SiloId to) {
  probes_missed_.fetch_add(1, std::memory_order_relaxed);
  bool file_vote = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    int misses = ++missed_[from][to];
    if (misses >= opts_.suspect_after_missed && !suspected_[from][to]) {
      suspected_[from][to] = 1;
      file_vote = true;
    }
  }
  if (file_vote) {
    TablePut(SuspectKey(to, from), "1");
    suspicions_filed_.fetch_add(1, std::memory_order_relaxed);
    AODB_LOG(Warn, "silo %d suspects silo %d (missed probes >= %d)",
             static_cast<int>(from), static_cast<int>(to),
             opts_.suspect_after_missed);
  }
  // Re-evaluate on every miss, not only on a fresh vote: the lease-expiry
  // arm of the declare-dead rule can become true long after the vote was
  // filed.
  EvaluateEviction(to);
}

void MembershipService::EvaluateEviction(SiloId target) {
  if (!cluster_->directory().SiloLive(target)) return;  // Already out.
  auto votes_listed = TableList(SuspectPrefix(target));
  int votes = votes_listed.ok()
                  ? static_cast<int>(votes_listed.value().size())
                  : 0;
  if (votes == 0) return;
  int live_voters = 0;
  for (SiloId i = 0; i < num_silos_; ++i) {
    if (i != target && cluster_->directory().SiloLive(i)) ++live_voters;
  }
  // Quorum can never exceed the silos able to vote (otherwise a two-silo
  // cluster could never evict anyone).
  int quorum = std::max(1, std::min(opts_.eviction_quorum, live_voters));
  bool lease_expired = true;  // A missing/corrupt row counts as expired.
  auto lease = ReadLease(target);
  Micros now = cluster_->ExecutorFor(target)->clock()->Now();
  if (lease.ok()) lease_expired = lease.value().expiry_us < now;
  if (votes < quorum && !lease_expired) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    eviction_at_[target] = now;
  }
  evictions_.fetch_add(1, std::memory_order_relaxed);
  AODB_LOG(Warn,
           "membership: declaring silo %d dead (%d/%d suspicion votes, "
           "lease %s)",
           static_cast<int>(target), votes, quorum,
           lease_expired ? "expired" : "current");
  cluster_->EvictSilo(target, "failure detector");
}

// --- Cluster hooks -----------------------------------------------------------

void MembershipService::NoteEvicted(SiloId id) {
  ClearSuspicions(id);
  std::lock_guard<std::mutex> lock(mu_);
  for (SiloId i = 0; i < num_silos_; ++i) {
    missed_[i][id] = 0;
    suspected_[i][id] = 0;
  }
}

void MembershipService::NoteRestarted(SiloId id) {
  ClearSuspicions(id);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++incarnation_[id];
    suppressed_[id] = 0;
    for (SiloId i = 0; i < num_silos_; ++i) {
      missed_[i][id] = 0;
      suspected_[i][id] = 0;
      missed_[id][i] = 0;
      suspected_[id][i] = 0;
    }
  }
  // Rejoin with a fresh lease immediately; the heartbeat loop (which never
  // stopped ticking) takes over from here.
  if (running_->load(std::memory_order_acquire)) RenewLease(id);
}

void MembershipService::ClearSuspicions(SiloId target) {
  auto listed = TableList(SuspectPrefix(target));
  if (!listed.ok()) return;
  for (const auto& [key, value] : listed.value()) TableDelete(key);
}

// --- Chaos & introspection ---------------------------------------------------

void MembershipService::SuppressSilo(SiloId id, bool suppressed) {
  std::lock_guard<std::mutex> lock(mu_);
  suppressed_[id] = suppressed ? 1 : 0;
}

bool MembershipService::Suppressed(SiloId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_[id] != 0;
}

int MembershipService::SuspicionCount(SiloId id) const {
  auto listed = TableList(SuspectPrefix(id));
  return listed.ok() ? static_cast<int>(listed.value().size()) : 0;
}

uint64_t MembershipService::Incarnation(SiloId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return incarnation_[id];
}

Micros MembershipService::LastEvictionAt(SiloId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return eviction_at_[id];
}

MembershipStats MembershipService::stats() const {
  MembershipStats s;
  s.lease_renewals = lease_renewals_.load(std::memory_order_relaxed);
  s.probes_sent = probes_sent_.load(std::memory_order_relaxed);
  s.probes_missed = probes_missed_.load(std::memory_order_relaxed);
  s.suspicions_filed = suspicions_filed_.load(std::memory_order_relaxed);
  s.suspicions_withdrawn =
      suspicions_withdrawn_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace aodb
