// Overload-management tests: bounded mailboxes returning Overloaded on both
// dispatch lanes (same-silo closure lane and the cross-silo wire lane),
// RetryAsync backpressure (back off and re-send
// to the SAME placement — no failover), the silo load shedder's priority
// ordering (telemetry first, queries past the hard watermark, control
// never), live hot-actor migration (state and reminders survive the
// deactivate -> directory-move -> reactivate cycle), the hot-actor
// controller's decisions (which actor moves where, the load-gap threshold,
// and both cooldowns), and the regression
// for the idle-sweep vs migration race: both initiators must observe the
// activation state machine, so whichever loses simply declines.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "actor/actor_ref.h"
#include "actor/retry_async.h"
#include "common/retry.h"
#include "sim/sim_harness.h"
#include "storage/mem_kv.h"
#include "storage/persistent_actor.h"

namespace aodb {
namespace {

// --- Actors under test -------------------------------------------------------

struct OvState {
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

/// Durable counter. Writes persist on every update, so idle-sweeps and
/// migrations may deactivate it at any point without losing acked adds.
class OvCounter : public PersistentActor<OvState> {
 public:
  static constexpr char kTypeName[] = "test.OvCounter";

  OvCounter()
      : PersistentActor<OvState>(PersistenceOptions{
            PersistPolicy::kOnEveryUpdate, 100, 10 * kMicrosPerSecond,
            "default", RetryPolicy{}}) {}

  int64_t Add(int64_t d) {
    state().value += d;
    MarkDirty();
    return state().value;
  }
  int64_t Value() { return state().value; }
  int64_t ReminderFires() { return state().reminder_fires; }
  Status StartReminder(int64_t period_us) {
    return ctx().RegisterReminder("tick", period_us);
  }

  void ReceiveReminder(const std::string&) override {
    ++state().reminder_fires;
    MarkDirty();
  }
};

/// Fans `n` expensive adds out to a counter from INSIDE a silo, so the
/// sends ride the same-silo closure lane (the wire lane is only taken for
/// cross-silo sends). Returns how many came back Overloaded.
class OvRelay : public ActorBase {
 public:
  static constexpr char kTypeName[] = "test.OvRelay";

  Future<int64_t> Flood(std::string key, int64_t n) {
    std::vector<Future<int64_t>> acks;
    acks.reserve(static_cast<size_t>(n));
    CallOptions opts;
    opts.cost_us = 100 * kMicrosPerMilli;
    for (int64_t i = 0; i < n; ++i) {
      acks.push_back(
          ctx().Ref<OvCounter>(key).CallWith(opts, &OvCounter::Add,
                                             int64_t{1}));
    }
    Promise<int64_t> done;
    WhenAll(acks).OnReady(
        [done](Result<std::vector<Result<int64_t>>>&& r) {
          int64_t overloaded = 0;
          if (r.ok()) {
            for (const auto& a : r.value()) {
              if (!a.ok() && a.status().IsOverloaded()) ++overloaded;
            }
          }
          done.SetValue(overloaded);
        });
    return done.GetFuture();
  }
};

void RegisterWireMethods() {
  static const Status st = [] {
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        OvCounter::kTypeName, &OvCounter::Add, "OvCounter.Add"));
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        OvCounter::kTypeName, &OvCounter::Value, "OvCounter.Value",
        /*idempotent=*/true));
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        OvCounter::kTypeName, &OvCounter::ReminderFires,
        "OvCounter.ReminderFires", /*idempotent=*/true));
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        OvRelay::kTypeName, &OvRelay::Flood, "OvRelay.Flood"));
    return MethodRegistry::Global().Register(
        OvCounter::kTypeName, &OvCounter::StartReminder,
        "OvCounter.StartReminder");
  }();
  ASSERT_TRUE(st.ok()) << st.ToString();
}

// --- Fixture -----------------------------------------------------------------

RuntimeOptions BaseOptions(int num_silos) {
  RuntimeOptions o;
  o.num_silos = num_silos;
  o.workers_per_silo = 1;  // Serialize turns: deterministic queue depths.
  o.seed = 42;
  return o;
}

struct TestCluster {
  explicit TestCluster(const RuntimeOptions& options)
      : harness(options), cluster(harness.cluster()) {
    RegisterWireMethods();
    cluster.RegisterActorType<OvCounter>();
    cluster.RegisterActorType<OvRelay>();
    cluster.RegisterStateStorage("default",
                                 std::make_shared<KvStateStorage>(&kv));
  }

  int64_t Metric(const std::string& name) {
    MetricsSnapshot snap = cluster.SnapshotMetrics();
    auto cit = snap.counters.find(name);
    if (cit != snap.counters.end()) return cit->second;
    auto git = snap.gauges.find(name);
    return git != snap.gauges.end() ? git->second : 0;
  }

  MemKvStore kv;
  SimHarness harness;
  Cluster& cluster;
};

// --- Bounded mailboxes -------------------------------------------------------

/// A full mailbox rejects with Overloaded on the wire lane (client -> silo
/// with wire-registered methods), the depth gauge returns to zero after the
/// drain, and no accepted add is lost or double-applied.
TEST(OverloadTest, MailboxFullOverloadedOnWireLane) {
  RuntimeOptions options = BaseOptions(1);
  options.overload.max_mailbox_depth = 2;
  TestCluster tc(options);

  CallOptions slow;
  slow.cost_us = 100 * kMicrosPerMilli;
  std::vector<Future<int64_t>> acks;
  for (int i = 0; i < 6; ++i) {
    acks.push_back(tc.cluster.Ref<OvCounter>("w0").CallWith(
        slow, &OvCounter::Add, int64_t{1}));
  }
  tc.harness.RunFor(2 * kMicrosPerSecond);

  int64_t overloaded = 0;
  int64_t acked = 0;
  for (auto& f : acks) {
    ASSERT_TRUE(f.Ready());
    if (f.Get().ok()) {
      ++acked;
    } else {
      EXPECT_TRUE(f.Get().status().IsOverloaded())
          << f.Get().status().ToString();
      EXPECT_TRUE(IsTransient(f.Get().status()));
      ++overloaded;
    }
  }
  EXPECT_GE(overloaded, 1);
  EXPECT_EQ(acked + overloaded, 6);
  EXPECT_EQ(tc.Metric("overload.mailbox_rejects"), overloaded);
  EXPECT_EQ(tc.Metric("mailbox.depth.test.OvCounter"), 0);

  auto v = tc.cluster.Ref<OvCounter>("w0").Call(&OvCounter::Value);
  ASSERT_TRUE(RunUntilReady(tc.harness, v, 5 * kMicrosPerSecond));
  EXPECT_EQ(v.Get().value(), acked);
}

/// Same rejection on the same-silo closure lane: an actor flooding a
/// co-located peer sees Overloaded without any wire encoding involved.
TEST(OverloadTest, MailboxFullOverloadedOnClosureLane) {
  RuntimeOptions options = BaseOptions(1);
  options.overload.max_mailbox_depth = 2;
  TestCluster tc(options);

  auto f = tc.cluster.Ref<OvRelay>("relay").Call(&OvRelay::Flood,
                                                 std::string("c0"),
                                                 int64_t{6});
  ASSERT_TRUE(RunUntilReady(tc.harness, f, 5 * kMicrosPerSecond));
  ASSERT_TRUE(f.Get().ok());
  int64_t overloaded = f.Get().value();
  EXPECT_GE(overloaded, 1);

  auto v = tc.cluster.Ref<OvCounter>("c0").Call(&OvCounter::Value);
  ASSERT_TRUE(RunUntilReady(tc.harness, v, 5 * kMicrosPerSecond));
  EXPECT_EQ(v.Get().value(), 6 - overloaded);
}

// --- Backpressure ------------------------------------------------------------

/// Overloaded is retryable-with-backoff: once the actor drains, the retry
/// succeeds against the SAME placement — backpressure must not trigger the
/// failover/re-placement path that Unavailable does.
TEST(OverloadTest, RetryBacksOffThenSucceedsSamePlacement) {
  RuntimeOptions options = BaseOptions(2);
  options.overload.max_mailbox_depth = 2;
  TestCluster tc(options);

  auto warm = tc.cluster.Ref<OvCounter>("r0").Call(&OvCounter::Add,
                                                   int64_t{1});
  ASSERT_TRUE(RunUntilReady(tc.harness, warm, 5 * kMicrosPerSecond));
  ASSERT_TRUE(warm.Get().ok());
  auto before = tc.cluster.directory().Lookup(
      ActorId{OvCounter::kTypeName, "r0"});
  ASSERT_TRUE(before.has_value());

  // Fill the mailbox (2 queued behind one 100ms turn), then push one more
  // add through RetryAsync: the first attempt is rejected, the backoff
  // waits out the drain, and the re-send lands.
  CallOptions slow;
  slow.cost_us = 100 * kMicrosPerMilli;
  std::vector<Future<int64_t>> backlog;
  for (int i = 0; i < 3; ++i) {
    backlog.push_back(tc.cluster.Ref<OvCounter>("r0").CallWith(
        slow, &OvCounter::Add, int64_t{1}));
  }
  tc.harness.RunFor(5 * kMicrosPerMilli);  // Deliveries land, none drain.

  RetryPolicy policy;
  policy.max_retries = 10;
  policy.initial_backoff_us = 50 * kMicrosPerMilli;
  policy.max_backoff_us = 200 * kMicrosPerMilli;
  int64_t retries = 0;
  Cluster* cl = &tc.cluster;
  auto f = RetryAsync<int64_t>(
      tc.cluster.client_executor(), policy, /*seed=*/7,
      [cl] {
        CallOptions opts;
        opts.cost_us = kMicrosPerMilli;
        return cl->Ref<OvCounter>("r0").CallWith(opts, &OvCounter::Add,
                                                 int64_t{1});
      },
      IsTransient, [&retries](const Status&) { ++retries; });
  ASSERT_TRUE(RunUntilReady(tc.harness, f, 10 * kMicrosPerSecond));
  ASSERT_TRUE(f.Get().ok()) << f.Get().status().ToString();

  int64_t backlog_acked = 0;
  for (auto& b : backlog) {
    if (b.Ready() && b.Get().ok()) ++backlog_acked;
  }
  auto after = tc.cluster.directory().Lookup(
      ActorId{OvCounter::kTypeName, "r0"});
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after.value(), before.value());  // No failover re-placement.
  EXPECT_GE(retries, 1);

  auto v = tc.cluster.Ref<OvCounter>("r0").Call(&OvCounter::Value);
  ASSERT_TRUE(RunUntilReady(tc.harness, v, 5 * kMicrosPerSecond));
  EXPECT_EQ(v.Get().value(), 1 + backlog_acked + 1);
}

// --- Load shedding -----------------------------------------------------------

/// Past the soft watermark the silo sheds telemetry but still accepts
/// queries and control traffic.
TEST(OverloadTest, ShedsTelemetryFirst) {
  RuntimeOptions options = BaseOptions(1);
  options.overload.shed_watermark = 4;
  options.overload.shed_hard_watermark = 1000;
  TestCluster tc(options);

  // Backlog rides the control class so building it cannot itself be shed.
  CallOptions slow;
  slow.cost_us = 50 * kMicrosPerMilli;
  slow.priority = MessagePriority::kControl;
  std::vector<Future<int64_t>> backlog;
  for (int i = 0; i < 12; ++i) {
    backlog.push_back(tc.cluster.Ref<OvCounter>("s0").CallWith(
        slow, &OvCounter::Add, int64_t{1}));
  }
  tc.harness.RunFor(5 * kMicrosPerMilli);

  CallOptions telemetry;
  telemetry.priority = MessagePriority::kTelemetry;
  auto t = tc.cluster.Ref<OvCounter>("s0").CallWith(telemetry,
                                                    &OvCounter::Add,
                                                    int64_t{1});
  CallOptions query;  // kQuery is the default priority.
  auto q = tc.cluster.Ref<OvCounter>("s0").CallWith(query, &OvCounter::Add,
                                                    int64_t{1});
  CallOptions control;
  control.priority = MessagePriority::kControl;
  auto c = tc.cluster.Ref<OvCounter>("s0").CallWith(control, &OvCounter::Add,
                                                    int64_t{1});
  tc.harness.RunFor(5 * kMicrosPerSecond);

  ASSERT_TRUE(t.Ready());
  ASSERT_FALSE(t.Get().ok());
  EXPECT_TRUE(t.Get().status().IsOverloaded()) << t.Get().status().ToString();
  ASSERT_TRUE(q.Ready());
  EXPECT_TRUE(q.Get().ok()) << q.Get().status().ToString();
  ASSERT_TRUE(c.Ready());
  EXPECT_TRUE(c.Get().ok()) << c.Get().status().ToString();
  EXPECT_GE(tc.Metric("overload.shed.telemetry"), 1);
  EXPECT_EQ(tc.Metric("overload.shed.query"), 0);
}

/// Past the hard watermark queries are shed too; control traffic never is.
TEST(OverloadTest, ShedsQueriesPastHardWatermarkNeverControl) {
  RuntimeOptions options = BaseOptions(1);
  options.overload.shed_watermark = 2;
  options.overload.shed_hard_watermark = 4;
  TestCluster tc(options);

  CallOptions slow;
  slow.cost_us = 50 * kMicrosPerMilli;
  slow.priority = MessagePriority::kControl;
  std::vector<Future<int64_t>> backlog;
  for (int i = 0; i < 12; ++i) {
    backlog.push_back(tc.cluster.Ref<OvCounter>("h0").CallWith(
        slow, &OvCounter::Add, int64_t{1}));
  }
  tc.harness.RunFor(5 * kMicrosPerMilli);

  auto q = tc.cluster.Ref<OvCounter>("h0").Call(&OvCounter::Add, int64_t{1});
  CallOptions control;
  control.priority = MessagePriority::kControl;
  auto c = tc.cluster.Ref<OvCounter>("h0").CallWith(control, &OvCounter::Add,
                                                    int64_t{1});
  tc.harness.RunFor(5 * kMicrosPerSecond);

  ASSERT_TRUE(q.Ready());
  ASSERT_FALSE(q.Get().ok());
  EXPECT_TRUE(q.Get().status().IsOverloaded()) << q.Get().status().ToString();
  ASSERT_TRUE(c.Ready());
  EXPECT_TRUE(c.Get().ok()) << c.Get().status().ToString();
  EXPECT_GE(tc.Metric("overload.shed.query"), 1);
  for (auto& b : backlog) {
    ASSERT_TRUE(b.Ready());
    EXPECT_TRUE(b.Get().ok());  // Control backlog was never shed.
  }
}

// --- Migration ---------------------------------------------------------------

/// Deterministic live migration: state survives the deactivate ->
/// directory-move -> reactivate cycle and the actor's reminder keeps firing
/// at the new silo (reminders route by ActorId, not by placement).
TEST(OverloadTest, MigrationPreservesStateAndReminders) {
  RuntimeOptions options = BaseOptions(2);
  TestCluster tc(options);

  ActorId id{OvCounter::kTypeName, "m0"};
  auto warm = tc.cluster.Ref<OvCounter>("m0").Call(&OvCounter::Add,
                                                   int64_t{7});
  ASSERT_TRUE(RunUntilReady(tc.harness, warm, 5 * kMicrosPerSecond));
  ASSERT_TRUE(warm.Get().ok());
  auto rem = tc.cluster.Ref<OvCounter>("m0").Call(
      &OvCounter::StartReminder, int64_t{200 * kMicrosPerMilli});
  ASSERT_TRUE(RunUntilReady(tc.harness, rem, 5 * kMicrosPerSecond));
  ASSERT_TRUE(rem.Get().ok() && rem.Get().value().ok());

  auto host = tc.cluster.directory().Lookup(id);
  ASSERT_TRUE(host.has_value());
  SiloId to = host.value() == 0 ? 1 : 0;

  // Unknown actors and already-there targets are reported, not migrated.
  EXPECT_TRUE(tc.cluster
                  .MigrateActivation(ActorId{OvCounter::kTypeName, "nope"}, to)
                  .IsNotFound());
  EXPECT_TRUE(tc.cluster.MigrateActivation(id, host.value()).ok());
  EXPECT_EQ(tc.Metric("overload.migrations"), 0);

  Status st = tc.cluster.MigrateActivation(id, to);
  ASSERT_TRUE(st.ok()) << st.ToString();
  tc.harness.RunFor(kMicrosPerSecond);
  auto moved = tc.cluster.directory().Lookup(id);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(moved.value(), to);
  EXPECT_EQ(tc.Metric("overload.migrations"), 1);

  // State survived the move; an add lands on the new silo without touching
  // the old placement.
  auto v = tc.cluster.Ref<OvCounter>("m0").Call(&OvCounter::Value);
  ASSERT_TRUE(RunUntilReady(tc.harness, v, 5 * kMicrosPerSecond));
  EXPECT_EQ(v.Get().value(), 7);

  auto fires0 = tc.cluster.Ref<OvCounter>("m0").Call(
      &OvCounter::ReminderFires);
  ASSERT_TRUE(RunUntilReady(tc.harness, fires0, 5 * kMicrosPerSecond));
  tc.harness.RunFor(2 * kMicrosPerSecond);
  auto fires1 = tc.cluster.Ref<OvCounter>("m0").Call(
      &OvCounter::ReminderFires);
  ASSERT_TRUE(RunUntilReady(tc.harness, fires1, 5 * kMicrosPerSecond));
  EXPECT_GT(fires1.Get().value(), fires0.Get().value());
  EXPECT_EQ(tc.cluster.directory().Lookup(id).value(), to);

  // A dead silo is not a migration target.
  tc.cluster.KillSilo(to == 0 ? 1 : 0);
  EXPECT_FALSE(tc.cluster.MigrateActivation(id, to == 0 ? 1 : 0).ok());
}

/// Queued messages survive a migration: mail waiting in the mailbox when
/// the controller deactivates the actor is re-routed to the new silo and
/// every accepted add is applied exactly once.
TEST(OverloadTest, MigrationReroutesQueuedMailWithoutLoss) {
  RuntimeOptions options = BaseOptions(2);
  TestCluster tc(options);

  ActorId id{OvCounter::kTypeName, "q0"};
  auto warm = tc.cluster.Ref<OvCounter>("q0").Call(&OvCounter::Add,
                                                   int64_t{1});
  ASSERT_TRUE(RunUntilReady(tc.harness, warm, 5 * kMicrosPerSecond));
  auto host = tc.cluster.directory().Lookup(id);
  ASSERT_TRUE(host.has_value());
  SiloId to = host.value() == 0 ? 1 : 0;

  // Stack mail behind a slow turn, then migrate mid-backlog: the busy
  // activation defers the move to the end of its current turn.
  CallOptions slow;
  slow.cost_us = 100 * kMicrosPerMilli;
  std::vector<Future<int64_t>> acks;
  for (int i = 0; i < 4; ++i) {
    acks.push_back(tc.cluster.Ref<OvCounter>("q0").CallWith(
        slow, &OvCounter::Add, int64_t{1}));
  }
  tc.harness.RunFor(5 * kMicrosPerMilli);
  Status st = tc.cluster.MigrateActivation(id, to);
  ASSERT_TRUE(st.ok()) << st.ToString();
  tc.harness.RunFor(3 * kMicrosPerSecond);

  int64_t acked = 1;  // Warmup.
  for (auto& f : acks) {
    ASSERT_TRUE(f.Ready());
    if (f.Get().ok()) ++acked;
  }
  EXPECT_EQ(tc.cluster.directory().Lookup(id).value(), to);
  EXPECT_EQ(tc.Metric("overload.migrations"), 1);
  auto v = tc.cluster.Ref<OvCounter>("q0").Call(&OvCounter::Value);
  ASSERT_TRUE(RunUntilReady(tc.harness, v, 5 * kMicrosPerSecond));
  EXPECT_EQ(v.Get().value(), acked);  // Nothing lost, nothing doubled.
}

// --- Hot-actor controller -----------------------------------------------------

/// Two silos under the simulator; the tests call the controller's scan
/// directly instead of starting its loop, so each decision is taken at a
/// known queue state. Adds cost 100 ms each on one worker per silo, so a
/// flood stays queued for many scans.
struct ControllerCluster : TestCluster {
  explicit ControllerCluster(const RuntimeOptions& options)
      : TestCluster(options) {}

  static RuntimeOptions Options() {
    RuntimeOptions o = BaseOptions(2);
    o.overload.hot_actor_min_depth = 16;
    o.overload.min_load_delta = 4;
    o.overload.migration_cooldown_us = kMicrosPerSecond;
    return o;
  }

  /// A counter key the directory places on `silo`, activated and idle (a
  /// loading activation is never a migration candidate).
  std::string WarmOn(SiloId silo, const std::string& prefix) {
    for (int i = 0;; ++i) {
      std::string key = prefix + std::to_string(i);
      ActorId id{OvCounter::kTypeName, key};
      SiloId placed = cluster.directory().LookupOrPlace(id, kClientSiloId);
      if (placed != silo) {
        cluster.directory().Remove(id, placed);
        continue;
      }
      auto f = cluster.Ref<OvCounter>(key).Call(&OvCounter::Add, int64_t{1});
      EXPECT_TRUE(RunUntilReady(harness, f, 5 * kMicrosPerSecond));
      return key;
    }
  }

  /// Queues `n` slow adds for `key` and lets them land.
  void Flood(const std::string& key, int n) {
    CallOptions slow;
    slow.cost_us = 100 * kMicrosPerMilli;
    for (int i = 0; i < n; ++i) {
      pending.push_back(cluster.Ref<OvCounter>(key).CallWith(
          slow, &OvCounter::Add, int64_t{1}));
    }
    harness.RunFor(5 * kMicrosPerMilli);
  }

  /// `scans` controller scans, 1 ms apart.
  void Scan(int scans = 1) {
    for (int i = 0; i < scans; ++i) {
      cluster.overload_controller().Rebalance();
      harness.RunFor(kMicrosPerMilli);
    }
  }

  SiloId HostOf(const std::string& key) {
    return cluster.directory().Lookup({OvCounter::kTypeName, key}).value();
  }

  std::vector<Future<int64_t>> pending;
};

/// The controller moves the deepest activation of the most loaded silo to
/// the least loaded one, and only an activation with at least
/// hot_actor_min_depth messages queued.
TEST(OverloadTest, ControllerMovesDeepestActivationToLeastLoadedSilo) {
  ControllerCluster tc(ControllerCluster::Options());
  const std::string shallow = tc.WarmOn(0, "shallow");
  const std::string deep = tc.WarmOn(0, "deep");

  tc.Flood(shallow, 12);  // 11 queued behind the running turn: too shallow.
  tc.Scan(3);
  ASSERT_GE(tc.cluster.silo(0)->QueuedEnvelopes(), 8);
  EXPECT_EQ(tc.cluster.silo(1)->QueuedEnvelopes(), 0);
  tc.harness.RunFor(500 * kMicrosPerMilli);
  EXPECT_EQ(tc.Metric("overload.migrations"), 0);

  tc.Flood(deep, 20);
  tc.Scan();
  tc.harness.RunFor(500 * kMicrosPerMilli);
  EXPECT_EQ(tc.Metric("overload.migrations"), 1);
  EXPECT_EQ(tc.HostOf(deep), 1);
  EXPECT_EQ(tc.HostOf(shallow), 0);
}

/// A load gap below min_load_delta moves nothing, however deep the actor
/// and however many scans run.
TEST(OverloadTest, ControllerIgnoresLoadGapBelowMinLoadDelta) {
  RuntimeOptions options = ControllerCluster::Options();
  options.overload.min_load_delta = 64;
  ControllerCluster tc(options);
  const std::string deep = tc.WarmOn(0, "deep");

  tc.Flood(deep, 40);
  ASSERT_GE(tc.cluster.silo(0)->QueuedEnvelopes(), 39);
  tc.Scan(20);
  tc.harness.RunFor(500 * kMicrosPerMilli);
  EXPECT_EQ(tc.Metric("overload.migrations"), 0);
  EXPECT_EQ(tc.HostOf(deep), 0);
}

/// Within migration_cooldown_us the moved actor is not picked again, even
/// as the deepest activation of the most loaded silo; after it, it is.
TEST(OverloadTest, ControllerCooldownKeepsMovedActorInPlace) {
  ControllerCluster tc(ControllerCluster::Options());
  const std::string hot = tc.WarmOn(0, "hot");

  tc.Flood(hot, 40);
  tc.Scan();
  const Micros moved_at = tc.harness.Now();
  tc.harness.RunFor(300 * kMicrosPerMilli);
  ASSERT_EQ(tc.HostOf(hot), 1);
  ASSERT_EQ(tc.Metric("overload.migrations"), 1);

  // Its rerouted mail makes silo 1 the most loaded, silo 0 is idle.
  tc.Scan(10);
  ASSERT_GE(tc.cluster.silo(1)->QueuedEnvelopes(), 16);
  EXPECT_EQ(tc.cluster.silo(0)->QueuedEnvelopes(), 0);
  tc.harness.RunFor(200 * kMicrosPerMilli);
  EXPECT_EQ(tc.HostOf(hot), 1);
  EXPECT_EQ(tc.Metric("overload.migrations"), 1);

  tc.harness.RunUntil(moved_at + kMicrosPerSecond);
  ASSERT_GE(tc.cluster.silo(1)->QueuedEnvelopes(), 16);
  tc.Scan();
  tc.harness.RunFor(300 * kMicrosPerMilli);
  EXPECT_EQ(tc.HostOf(hot), 0);
  EXPECT_EQ(tc.Metric("overload.migrations"), 2);
}

/// Within migration_cooldown_us the silo that just received a migration is
/// not a destination again, however far the other silo's load runs ahead;
/// after it, it is.
TEST(OverloadTest, ControllerCooldownSparesRecentDestination) {
  ControllerCluster tc(ControllerCluster::Options());
  const std::string first = tc.WarmOn(0, "first");
  const std::string second = tc.WarmOn(0, "second");

  tc.Flood(first, 20);
  tc.Scan();
  const Micros moved_at = tc.harness.Now();
  tc.harness.RunFor(300 * kMicrosPerMilli);
  ASSERT_EQ(tc.HostOf(first), 1);

  tc.Flood(second, 60);
  tc.Scan(10);
  ASSERT_GE(tc.cluster.silo(0)->QueuedEnvelopes(),
            tc.cluster.silo(1)->QueuedEnvelopes() + 32);
  tc.harness.RunFor(200 * kMicrosPerMilli);
  EXPECT_EQ(tc.HostOf(second), 0);
  EXPECT_EQ(tc.Metric("overload.migrations"), 1);

  tc.harness.RunUntil(moved_at + kMicrosPerSecond);
  tc.Scan();
  tc.harness.RunFor(300 * kMicrosPerMilli);
  EXPECT_EQ(tc.HostOf(second), 1);
  EXPECT_EQ(tc.Metric("overload.migrations"), 2);
}

/// Regression: the idle sweeper and the migration controller both want to
/// deactivate the same activation. Every combination of timing must leave
/// the actor consistent — a migration request observing a sweep in
/// progress declines (Aborted/NotFound) instead of double-deactivating,
/// and no acked write is ever lost.
TEST(OverloadTest, IdleSweepMigrationRaceKeepsStateConsistent) {
  RuntimeOptions options = BaseOptions(2);
  options.lifecycle.enable_idle_deactivation = true;
  options.lifecycle.idle_timeout_us = 20 * kMicrosPerMilli;
  options.lifecycle.scan_interval_us = 10 * kMicrosPerMilli;
  TestCluster tc(options);
  tc.cluster.StartIdleScanner();

  ActorId id{OvCounter::kTypeName, "race0"};
  int64_t adds = 0;
  for (int i = 0; i < 20; ++i) {
    auto f = tc.cluster.Ref<OvCounter>("race0").Call(&OvCounter::Add,
                                                     int64_t{1});
    ASSERT_TRUE(RunUntilReady(tc.harness, f, 5 * kMicrosPerSecond));
    ASSERT_TRUE(f.Get().ok());
    ++adds;
    // Vary the phase against the 10ms sweep so the migration request hits
    // the activation in every lifecycle state over the 20 iterations.
    tc.harness.RunFor(static_cast<Micros>(i) * kMicrosPerMilli);
    auto host = tc.cluster.directory().Lookup(id);
    SiloId to = host.has_value() && host.value() == 0 ? 1 : 0;
    Status st = tc.cluster.MigrateActivation(id, to);
    EXPECT_TRUE(st.ok() || st.IsAborted() || st.IsNotFound())
        << st.ToString();
    tc.harness.RunFor(50 * kMicrosPerMilli);
  }
  auto v = tc.cluster.Ref<OvCounter>("race0").Call(&OvCounter::Value);
  ASSERT_TRUE(RunUntilReady(tc.harness, v, 5 * kMicrosPerSecond));
  EXPECT_EQ(v.Get().value(), adds);
}

}  // namespace
}  // namespace aodb
