// Membership & automatic failure recovery tests: lease renewal in the
// system store, suspicion votes and quorum eviction of wedged silos,
// gray-failure (suppressed heartbeat) detection, in-flight call failover
// (idempotent re-submission vs Unavailable), deadline propagation through
// nested calls, the caller-side watchdog against a wedged silo, reminder
// restoration after an automatic eviction, and the acceptance scenario —
// a silo wedged WITHOUT Cluster::KillSilo must be declared dead within the
// suspicion window, its actors must reactivate elsewhere with no acked
// write lost, no caller may block past its deadline, and a rerun with the
// same seed must reproduce the exact counters.

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "actor/actor_ref.h"
#include "actor/fault.h"
#include "actor/membership.h"
#include "sim/sim_harness.h"
#include "storage/mem_kv.h"
#include "storage/persistent_actor.h"

namespace aodb {
namespace {

// --- Actors under test -------------------------------------------------------

struct MbrState {
  int64_t value = 0;
  int64_t reminder_fires = 0;
  void Encode(BufWriter* w) const {
    w->PutSigned(value);
    w->PutSigned(reminder_fires);
  }
  Status Decode(BufReader* r) {
    AODB_RETURN_NOT_OK(r->GetSigned(&value));
    return r->GetSigned(&reminder_fires);
  }
};

/// Durable counter persisting on every update; its wire-registered read is
/// idempotent (failover re-submits it) and its add is not.
class MbrCounter : public PersistentActor<MbrState> {
 public:
  static constexpr char kTypeName[] = "test.MbrCounter";

  MbrCounter()
      : PersistentActor<MbrState>(PersistenceOptions{
            PersistPolicy::kOnEveryUpdate, 100, 10 * kMicrosPerSecond,
            "default", MakeRetry()}) {}

  int64_t Add(int64_t d) {
    state().value += d;
    MarkDirty();
    return state().value;
  }
  int64_t Value() { return state().value; }
  int64_t ReminderFires() { return state().reminder_fires; }

  void ReceiveReminder(const std::string&) override {
    ++state().reminder_fires;
    MarkDirty();
  }

 private:
  static RetryPolicy MakeRetry() {
    RetryPolicy p;
    p.max_retries = 10;
    p.initial_backoff_us = 5 * kMicrosPerMilli;
    return p;
  }
};

/// Echoes the absolute deadline of the turn that runs it (0 = none).
class DeadlineEcho : public ActorBase {
 public:
  static constexpr char kTypeName[] = "test.DeadlineEcho";
  int64_t Echo() { return internal::CurrentTurnDeadline(); }
};

/// Relays to a DeadlineEcho, so the nested call must inherit this actor's
/// turn deadline.
class DeadlineRelay : public ActorBase {
 public:
  static constexpr char kTypeName[] = "test.DeadlineRelay";
  Future<int64_t> AskEcho(std::string key) {
    return ctx().Ref<DeadlineEcho>(key).Call(&DeadlineEcho::Echo);
  }
};

void RegisterWireMethods() {
  static const Status st = [] {
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        MbrCounter::kTypeName, &MbrCounter::Add, "MbrCounter.Add"));
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        MbrCounter::kTypeName, &MbrCounter::Value, "MbrCounter.Value",
        /*idempotent=*/true));
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        DeadlineEcho::kTypeName, &DeadlineEcho::Echo, "DeadlineEcho.Echo"));
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        DeadlineRelay::kTypeName, &DeadlineRelay::AskEcho,
        "DeadlineRelay.AskEcho"));
    return MethodRegistry::Global().Register(
        MbrCounter::kTypeName, &MbrCounter::ReminderFires,
        "MbrCounter.ReminderFires", /*idempotent=*/true);
  }();
  ASSERT_TRUE(st.ok()) << st.ToString();
}

// --- Fixture -----------------------------------------------------------------

/// Membership config scaled down so the whole detect-and-recover cycle fits
/// a few virtual seconds. Probe ring: with 3 silos and fanout 2, every silo
/// is probed by both of its peers, so quorum 2 is reachable.
RuntimeOptions MembershipOptionsForTest(int num_silos,
                                        bool enable_membership = true) {
  RuntimeOptions o;
  o.num_silos = num_silos;
  o.workers_per_silo = 2;
  o.seed = 42;
  o.membership.enable = enable_membership;
  o.membership.lease_duration_us = kMicrosPerSecond;
  o.membership.heartbeat_period_us = 200 * kMicrosPerMilli;
  o.membership.probe_period_us = 250 * kMicrosPerMilli;
  o.membership.probe_timeout_us = 100 * kMicrosPerMilli;
  o.membership.probe_fanout = 2;
  o.membership.suspect_after_missed = 2;
  o.membership.eviction_quorum = 2;
  o.membership.failover.max_retries = 3;
  o.membership.failover.initial_backoff_us = 10 * kMicrosPerMilli;
  o.default_call_deadline_us = 2 * kMicrosPerSecond;
  return o;
}

class MembershipTest : public ::testing::Test {
 protected:
  explicit MembershipTest(RuntimeOptions options = MembershipOptionsForTest(3))
      : harness_(options, &system_kv_) {
    RegisterWireMethods();
    harness_.cluster().RegisterActorType<MbrCounter>();
    harness_.cluster().RegisterActorType<DeadlineEcho>();
    harness_.cluster().RegisterActorType<DeadlineRelay>();
    storage_ = std::make_shared<KvStateStorage>(&grain_kv_);
    harness_.cluster().RegisterStateStorage("default", storage_);
  }

  template <typename T>
  Result<T> Settle(Future<T> f, Micros run_for = 10 * kMicrosPerSecond) {
    RunUntilReady(harness_, f, run_for);
    EXPECT_TRUE(f.Ready());
    return f.Get();
  }

  /// Activates `count` counters with Add(i + 1) acked, returning their refs.
  std::vector<ActorRef<MbrCounter>> SeedCounters(int count) {
    std::vector<ActorRef<MbrCounter>> refs;
    for (int i = 0; i < count; ++i) {
      refs.push_back(
          harness_.cluster().Ref<MbrCounter>("c" + std::to_string(i)));
      auto v = Settle(refs.back().Call(&MbrCounter::Add, int64_t{i + 1}));
      EXPECT_TRUE(v.ok()) << v.status().ToString();
    }
    // Drain the kOnEveryUpdate storage writes so every ack is durable
    // before any test kills the hosting silo.
    harness_.RunFor(kMicrosPerSecond);
    return refs;
  }

  /// The silo currently hosting counter `key` (must be activated).
  SiloId HostOf(const std::string& key) {
    auto host = harness_.cluster().directory().Lookup(
        ActorId{MbrCounter::kTypeName, key});
    EXPECT_TRUE(host.has_value()) << key << " not activated";
    return host.value_or(0);
  }

  MemKvStore system_kv_;
  MemKvStore grain_kv_;
  SimHarness harness_;
  std::shared_ptr<KvStateStorage> storage_;
};

// --- Lease table -------------------------------------------------------------

TEST_F(MembershipTest, EverySiloMaintainsALiveLeaseRow) {
  harness_.RunFor(2 * kMicrosPerSecond);
  MembershipService* m = harness_.cluster().membership();
  ASSERT_NE(m, nullptr);
  auto rows = system_kv_.List("mbr/lease/");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 3u) << "one lease row per silo";
  for (SiloId i = 0; i < 3; ++i) {
    auto lease = m->ReadLease(i);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_GT(lease.value().expiry_us, harness_.Now())
        << "a heartbeating silo's lease never expires";
    EXPECT_EQ(lease.value().incarnation, 1u);
  }
  // Renewals beyond the initial write prove the heartbeat loops are alive.
  EXPECT_GT(m->stats().lease_renewals, 3);
  EXPECT_GT(m->stats().probes_sent, 0);
  EXPECT_EQ(m->stats().evictions, 0) << "healthy cluster, no suspicion";
}

// --- Directory sentinel (RandomLive regression) ------------------------------

TEST_F(MembershipTest, AllSilosDeadFailsNewPlacementUnavailable) {
  SimHarness dead(MembershipOptionsForTest(2, /*enable_membership=*/false));
  dead.cluster().RegisterActorType<MbrCounter>();
  dead.cluster().KillSilo(0);
  dead.cluster().KillSilo(1);
  // A NEVER-placed actor: placement must return the kNoSilo sentinel and
  // the cluster must convert it to Unavailable instead of indexing silos_[-2].
  auto f = dead.cluster().Ref<MbrCounter>("fresh").Call(&MbrCounter::Value);
  dead.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(f.Ready());
  EXPECT_TRUE(f.Get().status().IsUnavailable())
      << f.Get().status().ToString();
  EXPECT_GE(dead.cluster().SnapshotMetrics().counters.at(
                "cluster.no_live_silo_rejects"),
            1);
}

// --- In-flight call failover -------------------------------------------------

TEST_F(MembershipTest, IdempotentCallFailsOverAcrossEviction) {
  auto refs = SeedCounters(6);
  // Pick a counter on a condemned silo so its pending call must fail over.
  SiloId victim = HostOf("c0");
  int idx = 0;
  auto pre = harness_.cluster().SnapshotMetrics().counters;
  // The read is in flight (tracked as pending) when the silo is evicted.
  auto read = refs[idx].Call(&MbrCounter::Value);
  harness_.cluster().EvictSilo(victim, "test");
  auto v = Settle(read);
  ASSERT_TRUE(v.ok()) << v.status().ToString()
                      << " (idempotent reads must be re-submitted)";
  EXPECT_EQ(v.value(), idx + 1) << "re-read from persisted state elsewhere";
  auto post = harness_.cluster().SnapshotMetrics().counters;
  EXPECT_GE(post.at("cluster.failover_resubmitted") -
                pre.at("cluster.failover_resubmitted"),
            1);
  EXPECT_GE(
      post.at("cluster.auto_evictions") - pre.at("cluster.auto_evictions"),
      1);
}

TEST_F(MembershipTest, NonIdempotentCallFailsUnavailableOnEviction) {
  auto refs = SeedCounters(6);
  SiloId victim = HostOf("c1");
  auto pre = harness_.cluster().SnapshotMetrics().counters;
  auto add = refs[1].Call(&MbrCounter::Add, int64_t{100});
  harness_.cluster().EvictSilo(victim, "test");
  auto v = Settle(add);
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsUnavailable()) << v.status().ToString();
  auto post = harness_.cluster().SnapshotMetrics().counters;
  EXPECT_GE(
      post.at("cluster.failover_failed") - pre.at("cluster.failover_failed"),
      1);
  // The add did NOT run twice nor once-after-failure: the counter still
  // reads its seed value from persisted state on a live silo.
  auto value = Settle(refs[1].Call(&MbrCounter::Value));
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 2);
}

TEST_F(MembershipTest, AnnouncedKillIsNotCountedAsAutoEviction) {
  SeedCounters(3);
  auto pre = harness_.cluster().SnapshotMetrics().counters;
  harness_.cluster().KillSilo(2);
  auto post = harness_.cluster().SnapshotMetrics().counters;
  EXPECT_EQ(post.at("cluster.auto_evictions"), pre.at("cluster.auto_evictions"))
      << "KillSilo is announced; only the failure detector bumps this";
}

// --- Deadlines ---------------------------------------------------------------

TEST_F(MembershipTest, CallAgainstWedgedSiloTimesOutAtDeadline) {
  // Membership disabled: nothing will ever evict the wedged silo, so ONLY
  // the caller-side watchdog can settle the promise.
  SimHarness wedged(MembershipOptionsForTest(2, /*enable_membership=*/false));
  wedged.cluster().RegisterActorType<MbrCounter>();
  MemKvStore grain_kv;
  wedged.cluster().RegisterStateStorage(
      "default", std::make_shared<KvStateStorage>(&grain_kv));
  auto c = wedged.cluster().Ref<MbrCounter>("c");
  auto warm = c.Call(&MbrCounter::Add, int64_t{1});
  RunUntilReady(wedged, warm, 10 * kMicrosPerSecond);
  ASSERT_TRUE(warm.Ready() && warm.Get().ok());

  SiloId victim = wedged.cluster()
                      .directory()
                      .Lookup(ActorId{MbrCounter::kTypeName, "c"})
                      .value_or(0);
  wedged.cluster().silo(victim)->SetWedged(true);
  CallOptions opts;
  opts.timeout_us = 500 * kMicrosPerMilli;
  Micros sent_at = wedged.Now();
  auto f = c.CallWith(opts, &MbrCounter::Value);
  RunUntilReady(wedged, f, 2 * kMicrosPerSecond);
  ASSERT_TRUE(f.Ready()) << "the watchdog must settle the promise";
  EXPECT_TRUE(f.Get().status().IsTimeout()) << f.Get().status().ToString();
  EXPECT_LE(wedged.Now(), sent_at + 600 * kMicrosPerMilli)
      << "settled at (about) the deadline, not later";
  EXPECT_GE(wedged.cluster().SnapshotMetrics().counters.at(
                "cluster.deadline_timeouts"),
            1);
}

TEST_F(MembershipTest, NestedCallInheritsCallerDeadline) {
  CallOptions opts;
  opts.timeout_us = 5 * kMicrosPerSecond;
  Micros sent_at = harness_.Now();
  auto relay = harness_.cluster().Ref<DeadlineRelay>("relay");
  auto echoed = Settle(relay.CallWith(opts, &DeadlineRelay::AskEcho,
                                      std::string("echo")));
  ASSERT_TRUE(echoed.ok()) << echoed.status().ToString();
  EXPECT_EQ(echoed.value(), sent_at + opts.timeout_us)
      << "the inner turn runs under the outer call's absolute deadline";
}

TEST_F(MembershipTest, DefaultDeadlineAppliesWhenNoTimeoutGiven) {
  Micros sent_at = harness_.Now();
  auto echoed = Settle(harness_.cluster().Ref<DeadlineEcho>("e").Call(
      &DeadlineEcho::Echo));
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(echoed.value(),
            sent_at + harness_.cluster().options().default_call_deadline_us);
}

// --- Reminder restoration ----------------------------------------------------

TEST_F(MembershipTest, ReminderSurvivesAutomaticEviction) {
  auto refs = SeedCounters(3);
  SiloId victim = HostOf("c0");
  ActorId id{MbrCounter::kTypeName, "c0"};
  ASSERT_TRUE(harness_.cluster()
                  .reminders()
                  .Register(id, "tick", 300 * kMicrosPerMilli)
                  .ok());
  harness_.RunFor(2 * kMicrosPerSecond);
  auto before = Settle(refs[0].Call(&MbrCounter::ReminderFires));
  ASSERT_TRUE(before.ok());
  EXPECT_GT(before.value(), 0) << "reminder must fire while healthy";

  auto pre = harness_.cluster().SnapshotMetrics().counters;
  harness_.cluster().silo(victim)->SetWedged(true);
  ASSERT_TRUE(RunUntilTrue(
      harness_, [&] { return !harness_.cluster().SiloAlive(victim); },
      15 * kMicrosPerSecond))
      << "failure detector must evict the wedged silo";
  auto post = harness_.cluster().SnapshotMetrics().counters;
  EXPECT_GE(
      post.at("cluster.auto_evictions") - pre.at("cluster.auto_evictions"),
      1);
  // Reminder ticks swallowed by the wedge had no failure hook: they are
  // the dead letters the eviction log line counts.
  EXPECT_GT(post.at("cluster.dead_letters"), pre.at("cluster.dead_letters"));

  // The reminder schedule outlives the silo: the next tick reactivates the
  // actor on a live node from its persisted snapshot and keeps counting.
  harness_.RunFor(3 * kMicrosPerSecond);
  auto after = Settle(refs[0].Call(&MbrCounter::ReminderFires));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(after.value(), before.value())
      << "reminder fires must resume after re-placement";
  auto value = Settle(refs[0].Call(&MbrCounter::Value));
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 1) << "acked write survived the eviction";
}

// --- Gray failure ------------------------------------------------------------

TEST_F(MembershipTest, GrayFailingSiloIsEvictedWhileStillServing) {
  auto refs = SeedCounters(6);
  SiloId victim = HostOf("c3");
  MembershipService* m = harness_.cluster().membership();
  ASSERT_NE(m, nullptr);

  FaultPlan plan;
  plan.wedges.push_back(SiloWedgeEvent{/*at_us=*/100 * kMicrosPerMilli,
                                       victim, /*suppress_only=*/true});
  FaultInjector injector(plan);
  injector.Arm(&harness_.cluster());
  harness_.RunFor(300 * kMicrosPerMilli);
  ASSERT_TRUE(m->Suppressed(victim));

  // The defining property of a gray failure: the silo still answers
  // application calls even though its membership agent is dark.
  auto during = Settle(refs[3].Call(&MbrCounter::Value));
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_EQ(during.value(), 4);

  ASSERT_TRUE(RunUntilTrue(
      harness_, [&] { return !harness_.cluster().SiloAlive(victim); },
      15 * kMicrosPerSecond))
      << "silent membership agent must still get the silo evicted";
  EXPECT_GE(m->stats().suspicions_filed, 2);
  EXPECT_GT(m->LastEvictionAt(victim), 0);

  // And the actor lives on elsewhere.
  auto after = Settle(refs[3].Call(&MbrCounter::Value));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value(), 4);
}

// --- Asymmetric partition ----------------------------------------------------

TEST_F(MembershipTest, AsymmetricPartitionDoesNotEvictAHealthySilo) {
  auto refs = SeedCounters(6);
  MembershipService* m = harness_.cluster().membership();
  ASSERT_NE(m, nullptr);

  // Sever ONLY silo 0 -> silo 1: silo 0's probes (and probe acks riding the
  // reverse path) die, so silo 0 files a suspicion against silo 1. But
  // silo 1 is healthy — it heartbeats its lease, answers silo 2's probes,
  // and serves traffic. One gray link must not get it killed: eviction
  // needs a quorum of independent suspectors (or a dead lease), and this
  // view has exactly one.
  harness_.cluster().network().SetPartitioned(0, 1, true);
  harness_.RunFor(6 * kMicrosPerSecond);

  EXPECT_GT(m->stats().probes_missed, 0)
      << "the severed link must actually eat probes";
  EXPECT_GT(m->stats().suspicions_filed, 0)
      << "silo 0 must suspect the silo it cannot reach";
  EXPECT_EQ(m->stats().evictions, 0)
      << "a single suspector must never evict a lease-holding silo";
  for (SiloId i = 0; i < 3; ++i) {
    EXPECT_TRUE(harness_.cluster().SiloAlive(i))
        << "silo " << i << " wrongly declared dead — views diverged";
    auto lease = m->ReadLease(i);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_GT(lease.value().expiry_us, harness_.Now())
        << "silo " << i << " must still be renewing its lease";
  }

  // The partitioned link carries application traffic too, but every actor
  // stays reachable: calls route via the directory, and retries/failover
  // cover the severed pairs. Spot-check a few counters end to end.
  for (int i = 0; i < 6; ++i) {
    auto v = Settle(refs[i].Call(&MbrCounter::Value));
    ASSERT_TRUE(v.ok()) << "c" << i << ": " << v.status().ToString();
    EXPECT_EQ(v.value(), i + 1);
  }

  // Heal the link: the prober's standing vote is withdrawn, and the view
  // converges back to fully-healthy with no eviction ever having fired.
  harness_.cluster().network().SetPartitioned(0, 1, false);
  harness_.RunFor(4 * kMicrosPerSecond);
  EXPECT_GT(m->stats().suspicions_withdrawn, 0)
      << "healed link must retract the standing suspicion vote";
  EXPECT_EQ(m->stats().evictions, 0);
  for (SiloId i = 0; i < 3; ++i) {
    EXPECT_TRUE(harness_.cluster().SiloAlive(i));
  }
}

TEST_F(MembershipTest, RestartBumpsIncarnationAndRenewsLease) {
  MembershipService* m = harness_.cluster().membership();
  ASSERT_NE(m, nullptr);
  harness_.cluster().silo(1)->SetWedged(true);
  ASSERT_TRUE(RunUntilTrue(
      harness_, [&] { return !harness_.cluster().SiloAlive(1); },
      15 * kMicrosPerSecond));
  harness_.cluster().RestartSilo(1);
  EXPECT_TRUE(harness_.cluster().SiloAlive(1));
  EXPECT_EQ(m->Incarnation(1), 2u) << "a rejoin is a new incarnation";
  EXPECT_EQ(m->SuspicionCount(1), 0) << "rejoin starts with a clean slate";
  auto lease = m->ReadLease(1);
  ASSERT_TRUE(lease.ok());
  EXPECT_GT(lease.value().expiry_us, harness_.Now());
  // Healthy again: no further eviction within another suspicion window.
  Micros evicted_at = m->LastEvictionAt(1);
  harness_.RunFor(3 * kMicrosPerSecond);
  EXPECT_TRUE(harness_.cluster().SiloAlive(1));
  EXPECT_EQ(m->LastEvictionAt(1), evicted_at);
}

// --- The acceptance scenario -------------------------------------------------

/// Everything one wedge-convergence run produces that a rerun with the same
/// seed must reproduce exactly.
struct WedgeOutcome {
  Micros detection_latency_us = 0;
  int64_t auto_evictions = 0;
  int64_t dead_letters = 0;
  int64_t deadline_timeouts = 0;
  int64_t failover_resubmitted = 0;
  int64_t failover_failed = 0;
  int64_t suspicions_filed = 0;
  int64_t ok_during_outage = 0;
  int64_t timed_out_during_outage = 0;
  std::vector<int64_t> final_values;
};

WedgeOutcome RunWedgeConvergence() {
  MemKvStore system_kv;
  MemKvStore grain_kv;
  SimHarness harness(MembershipOptionsForTest(3), &system_kv);
  Cluster& cluster = harness.cluster();
  RegisterWireMethods();
  cluster.RegisterActorType<MbrCounter>();
  cluster.RegisterStateStorage(
      "default", std::make_shared<KvStateStorage>(&grain_kv));

  // Ack one durable write per counter on a healthy cluster.
  constexpr int kCounters = 9;
  std::vector<ActorRef<MbrCounter>> refs;
  for (int i = 0; i < kCounters; ++i) {
    refs.push_back(cluster.Ref<MbrCounter>("w" + std::to_string(i)));
    auto f = refs.back().Call(&MbrCounter::Add, int64_t{i + 1});
    RunUntilReady(harness, f, 10 * kMicrosPerSecond);
    EXPECT_TRUE(f.Ready() && f.Get().ok());
  }

  // The silo dies WITHOUT KillSilo: a wedge scheduled by the fault plan.
  constexpr SiloId kVictim = 1;
  const Micros wedge_at = harness.Now() + 500 * kMicrosPerMilli;
  FaultPlan plan;
  plan.seed = 7;
  plan.wedges.push_back(
      SiloWedgeEvent{500 * kMicrosPerMilli, kVictim, false});
  FaultInjector injector(plan);
  injector.Arm(&cluster);
  harness.RunFor(600 * kMicrosPerMilli);
  EXPECT_TRUE(cluster.silo(kVictim)->wedged());
  EXPECT_TRUE(cluster.SiloAlive(kVictim)) << "a wedge is unannounced";

  // Keep calling through the outage (default 2 s deadline). Reads against
  // the wedged silo either time out or fail over once the eviction lands;
  // nobody may block past the deadline.
  std::vector<Future<int64_t>> outage_reads;
  for (int i = 0; i < kCounters; ++i) {
    outage_reads.push_back(refs[i].Call(&MbrCounter::Value));
  }

  // Convergence: the detector must declare the silo dead on its own.
  WedgeOutcome out;
  EXPECT_TRUE(RunUntilTrue(
      harness, [&] { return !cluster.SiloAlive(kVictim); },
      15 * kMicrosPerSecond))
      << "wedged silo never evicted";
  MembershipService* m = cluster.membership();
  out.detection_latency_us = m->LastEvictionAt(kVictim) - wedge_at;
  EXPECT_GT(out.detection_latency_us, 0);
  EXPECT_LT(out.detection_latency_us, 5 * kMicrosPerSecond)
      << "detection must land within the suspicion window";

  // Every outage call settles by its deadline.
  harness.RunFor(3 * kMicrosPerSecond);
  for (auto& f : outage_reads) {
    EXPECT_TRUE(f.Ready()) << "caller blocked past its deadline";
    if (!f.Ready()) continue;
    if (f.Get().ok()) {
      ++out.ok_during_outage;
    } else {
      EXPECT_TRUE(f.Get().status().IsTimeout() ||
                  f.Get().status().IsUnavailable())
          << f.Get().status().ToString();
      ++out.timed_out_during_outage;
    }
  }

  // No acked write lost: every counter reads back its persisted value from
  // a live silo.
  for (int i = 0; i < kCounters; ++i) {
    auto f = refs[i].Call(&MbrCounter::Value);
    RunUntilReady(harness, f, 10 * kMicrosPerSecond);
    EXPECT_TRUE(f.Ready() && f.Get().ok())
        << (f.Ready() ? f.Get().status().ToString() : "pending");
    out.final_values.push_back(f.Ready() && f.Get().ok() ? f.Get().value()
                                                         : -1);
    EXPECT_EQ(out.final_values.back(), i + 1) << "acked write lost: w" << i;
  }

  auto counters = cluster.SnapshotMetrics().counters;
  out.auto_evictions = counters.at("cluster.auto_evictions");
  out.dead_letters = counters.at("cluster.dead_letters");
  out.deadline_timeouts = counters.at("cluster.deadline_timeouts");
  out.failover_resubmitted = counters.at("cluster.failover_resubmitted");
  out.failover_failed = counters.at("cluster.failover_failed");
  out.suspicions_filed = m->stats().suspicions_filed;
  return out;
}

TEST(MembershipAcceptanceTest, WedgedSiloConvergesAndRerunIsDeterministic) {
  WedgeOutcome first = RunWedgeConvergence();
  EXPECT_EQ(first.auto_evictions, 1);
  EXPECT_GE(first.suspicions_filed, 2) << "quorum needs two voters";
  EXPECT_EQ(static_cast<int>(first.final_values.size()), 9);
  EXPECT_EQ(first.ok_during_outage + first.timed_out_during_outage, 9);
  EXPECT_GT(first.ok_during_outage, 0)
      << "reads against live silos (and failed-over reads) succeed";

  WedgeOutcome second = RunWedgeConvergence();
  EXPECT_EQ(first.detection_latency_us, second.detection_latency_us);
  EXPECT_EQ(first.auto_evictions, second.auto_evictions);
  EXPECT_EQ(first.dead_letters, second.dead_letters);
  EXPECT_EQ(first.deadline_timeouts, second.deadline_timeouts);
  EXPECT_EQ(first.failover_resubmitted, second.failover_resubmitted);
  EXPECT_EQ(first.failover_failed, second.failover_failed);
  EXPECT_EQ(first.suspicions_filed, second.suspicions_filed);
  EXPECT_EQ(first.ok_during_outage, second.ok_during_outage);
  EXPECT_EQ(first.final_values, second.final_values);
}

// --- Real mode (thread pools; exercised under TSan) --------------------------

TEST(MembershipRealModeTest, WedgedSiloIsEvictedOnRealThreadPools) {
  RuntimeOptions o;
  o.num_silos = 3;
  o.workers_per_silo = 2;
  o.membership.enable = true;
  o.membership.lease_duration_us = 200 * kMicrosPerMilli;
  o.membership.heartbeat_period_us = 20 * kMicrosPerMilli;
  o.membership.probe_period_us = 20 * kMicrosPerMilli;
  o.membership.probe_timeout_us = 10 * kMicrosPerMilli;
  o.membership.suspect_after_missed = 2;
  o.membership.eviction_quorum = 2;
  // Keep the real-mode network fast so probes beat their timeout.
  o.network.silo_latency_us = 100;
  o.network.jitter_us = 50;
  MemKvStore system_kv;
  RealClusterHandle handle(o, &system_kv);
  Cluster& cluster = handle.cluster();

  // Let a few heartbeats land, then wedge one silo and wait for eviction.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(cluster.membership()->ReadLease(0).ok());
  cluster.silo(1)->SetWedged(true);
  bool evicted = false;
  for (int i = 0; i < 500; ++i) {
    if (!cluster.SiloAlive(1)) {
      evicted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(evicted) << "failure detector never evicted the wedged silo";
  EXPECT_GE(cluster.SnapshotMetrics().counters.at("cluster.auto_evictions"),
            1);
  handle.Shutdown();
}

}  // namespace
}  // namespace aodb
