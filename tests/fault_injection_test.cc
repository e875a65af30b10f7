// Fault-injection and recovery tests: the RetryPolicy/RetryState backoff
// math, FaultInjector determinism, silo kill/restart with reactivation from
// persisted state, message drop and duplication, FaultyStateStorage healed
// by persistence retries, and the acceptance chaos scenario — a seeded
// fault plan (1 of 3 silos killed mid-run, 1% message drop, 5% transient
// storage errors) under which the SHM platform must lose no acknowledged
// sensor write, and a rerun of the same seed must reproduce identical
// fault/retry counters. The scenario runs under two persistence policies;
// under both, durable channel appends go through the state journal.

#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "actor/fault.h"
#include "actor/retry_async.h"
#include "common/retry.h"
#include "shm/platform.h"
#include "sim/sim_harness.h"
#include "storage/faulty_storage.h"
#include "storage/mem_kv.h"
#include "storage/persistent_actor.h"
#include "journal_counter.h"
#include "wire_methods.h"

namespace aodb {
namespace {

// --- RetryPolicy / RetryState ------------------------------------------------

TEST(RetryStateTest, JitterlessBackoffDoublesUpToCap) {
  RetryPolicy p;
  p.max_retries = 4;
  p.initial_backoff_us = 10;
  p.max_backoff_us = 35;
  p.multiplier = 2.0;
  p.jitter = 0;
  RetryState state(p, /*seed=*/1);
  EXPECT_EQ(state.NextBackoff(0).value(), 10);
  EXPECT_EQ(state.NextBackoff(0).value(), 20);
  EXPECT_EQ(state.NextBackoff(0).value(), 35) << "capped at max_backoff_us";
  EXPECT_EQ(state.NextBackoff(0).value(), 35);
  EXPECT_FALSE(state.NextBackoff(0).has_value()) << "attempt cap reached";
  EXPECT_EQ(state.attempts(), 4);
}

TEST(RetryStateTest, JitterStaysWithinBandAndIsSeedDeterministic) {
  RetryPolicy p;
  p.max_retries = 100;
  p.initial_backoff_us = 1000;
  p.max_backoff_us = 1000;
  p.jitter = 0.2;
  RetryState a(p, 99);
  RetryState b(p, 99);
  for (int i = 0; i < 100; ++i) {
    Micros wa = a.NextBackoff(0).value();
    EXPECT_GE(wa, 800);
    EXPECT_LE(wa, 1200);
    EXPECT_EQ(wa, b.NextBackoff(0).value()) << "same seed, same sequence";
  }
}

TEST(RetryStateTest, DeadlineStopsRetrying) {
  RetryPolicy p;
  p.max_retries = 100;
  p.initial_backoff_us = 100;
  p.jitter = 0;
  p.deadline_us = 150;
  RetryState state(p, 1);
  EXPECT_TRUE(state.NextBackoff(0).has_value());
  EXPECT_FALSE(state.NextBackoff(140).has_value())
      << "backoff would land past the deadline";
}

TEST(RetryStateTest, NonePolicyNeverRetries) {
  RetryState state(RetryPolicy::None(), 1);
  EXPECT_FALSE(state.NextBackoff(0).has_value());
}

// --- FaultInjector -----------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameDecisionSequence) {
  FaultPlan plan;
  plan.seed = 7;
  plan.message.drop_prob = 0.3;
  plan.message.duplicate_prob = 0.2;
  plan.storage.error_prob = 0.25;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.ShouldDropMessage(), b.ShouldDropMessage());
    EXPECT_EQ(a.ShouldDuplicateMessage(), b.ShouldDuplicateMessage());
    EXPECT_EQ(a.NextStorageFault().ok(), b.NextStorageFault().ok());
  }
  EXPECT_EQ(a.messages_dropped(), b.messages_dropped());
  EXPECT_EQ(a.messages_duplicated(), b.messages_duplicated());
  EXPECT_EQ(a.storage_errors(), b.storage_errors());
  EXPECT_GT(a.messages_dropped(), 0);
  EXPECT_GT(a.storage_errors(), 0);
}

// --- Actors under test -------------------------------------------------------

struct CounterState {
  int64_t value = 0;
  void Encode(BufWriter* w) const { w->PutSigned(value); }
  Status Decode(BufReader* r) { return r->GetSigned(&value); }
};

/// Durable counter persisting on every update (so acked increments are on
/// storage before the silo can die).
class DurableCounter : public PersistentActor<CounterState> {
 public:
  static constexpr char kTypeName[] = "test.DurableCounter";

  DurableCounter()
      : PersistentActor<CounterState>(PersistenceOptions{
            PersistPolicy::kOnEveryUpdate, 100, 10 * kMicrosPerSecond,
            "default", MakeRetry()}) {}

  int64_t Add(int64_t d) {
    state().value += d;
    MarkDirty();
    return state().value;
  }
  int64_t Value() { return state().value; }
  int64_t Retries() { return storage_retries(); }

 private:
  static RetryPolicy MakeRetry() {
    RetryPolicy p;
    p.max_retries = 10;
    p.initial_backoff_us = 5 * kMicrosPerMilli;
    return p;
  }
};

/// Volatile counter for message drop/duplication observation.
class VolatileCounter : public ActorBase {
 public:
  static constexpr char kTypeName[] = "test.VolatileCounter";
  int64_t Add(int64_t d) { return value_ += d; }
  int64_t Value() { return value_; }

 private:
  int64_t value_ = 0;
};

/// The counter methods the tests call from the client node.
void RegisterCounterWire() {
  RegisterWire<DurableCounter>(&DurableCounter::Add, "Add",
                               &DurableCounter::Value, "Value",
                               &DurableCounter::Retries, "Retries");
  RegisterWire<VolatileCounter>(&VolatileCounter::Add, "Add",
                                &VolatileCounter::Value, "Value");
}

// --- Silo kill / restart -----------------------------------------------------

class SiloCrashTest : public ::testing::Test {
 protected:
  explicit SiloCrashTest(int num_silos = 2) : harness_(MakeOptions(num_silos)) {
    RegisterCounterWire();
    harness_.cluster().RegisterActorType<DurableCounter>();
    harness_.cluster().RegisterActorType<VolatileCounter>();
    backing_ = std::make_shared<MemKvStore>();
    storage_ = std::make_shared<KvStateStorage>(backing_.get());
    harness_.cluster().RegisterStateStorage("default", storage_);
  }

  static RuntimeOptions MakeOptions(int num_silos) {
    RuntimeOptions o;
    o.num_silos = num_silos;
    o.workers_per_silo = 2;
    return o;
  }

  template <typename T>
  Result<T> Settle(Future<T> f, Micros run_for = 30 * kMicrosPerSecond) {
    harness_.RunFor(run_for);
    EXPECT_TRUE(f.Ready());
    return f.Get();
  }

  SimHarness harness_;
  std::shared_ptr<MemKvStore> backing_;
  std::shared_ptr<KvStateStorage> storage_;
};

TEST_F(SiloCrashTest, KilledSiloFailsCallsAndStateSurvivesReactivation) {
  // Spread durable counters over both silos and ack some increments.
  std::vector<ActorRef<DurableCounter>> refs;
  for (int i = 0; i < 8; ++i) {
    refs.push_back(
        harness_.cluster().Ref<DurableCounter>("c" + std::to_string(i)));
    auto v = Settle(refs.back().Call(&DurableCounter::Add, int64_t{i + 1}));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), i + 1);
  }
  harness_.cluster().KillSilo(1);
  EXPECT_FALSE(harness_.cluster().SiloAlive(1));
  // Every counter remains reachable: actors that lived on silo 1 were
  // purged from the directory and reactivate on silo 0 from their
  // persisted snapshot.
  for (int i = 0; i < 8; ++i) {
    auto v = Settle(refs[i].Call(&DurableCounter::Value));
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(v.value(), i + 1) << "acked increment lost on reactivation";
  }
}

TEST_F(SiloCrashTest, CallToDeadSingleSiloFailsUnavailableUntilRestart) {
  SimHarness solo(MakeOptions(1));
  RegisterCounterWire();
  solo.cluster().RegisterActorType<DurableCounter>();
  MemKvStore backing;
  auto storage = std::make_shared<KvStateStorage>(&backing);
  solo.cluster().RegisterStateStorage("default", storage);
  auto c = solo.cluster().Ref<DurableCounter>("c");
  auto first = c.Call(&DurableCounter::Add, int64_t{5});
  solo.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(first.Ready());
  ASSERT_TRUE(first.Get().ok());

  solo.cluster().KillSilo(0);
  auto dead = c.Call(&DurableCounter::Value);
  solo.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(dead.Ready());
  EXPECT_TRUE(dead.Get().status().IsUnavailable())
      << "no live silo: calls must fail fast, not hang";

  solo.cluster().RestartSilo(0);
  EXPECT_TRUE(solo.cluster().SiloAlive(0));
  auto back = c.Call(&DurableCounter::Value);
  solo.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(back.Ready());
  ASSERT_TRUE(back.Get().ok());
  EXPECT_EQ(back.Get().value(), 5) << "state survives a full silo bounce";
}

TEST_F(SiloCrashTest, InFlightMessagesToKilledSiloFailUnavailable) {
  // Queue calls, kill the silo before the simulator runs them: both mailbox
  // occupants and late arrivals must fail with Unavailable.
  std::vector<Future<int64_t>> pending;
  for (int i = 0; i < 16; ++i) {
    pending.push_back(harness_.cluster()
                          .Ref<VolatileCounter>("v" + std::to_string(i))
                          .Call(&VolatileCounter::Add, int64_t{1}));
  }
  harness_.cluster().KillSilo(1);
  harness_.cluster().KillSilo(0);
  harness_.RunFor(kMicrosPerSecond);
  for (auto& f : pending) {
    ASSERT_TRUE(f.Ready());
    EXPECT_TRUE(f.Get().status().IsUnavailable());
  }
}

TEST_F(SiloCrashTest, RetryAsyncHealsACrashRestartWindow) {
  SimHarness solo(MakeOptions(1));
  RegisterCounterWire();
  solo.cluster().RegisterActorType<VolatileCounter>();
  auto c = solo.cluster().Ref<VolatileCounter>("v");
  auto warm = c.Call(&VolatileCounter::Add, int64_t{1});
  solo.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(warm.Ready());
  ASSERT_TRUE(warm.Get().ok());

  solo.cluster().KillSilo(0);
  // The silo comes back 2 s from now; the client retries through the
  // outage under the unified policy.
  solo.client_executor()->PostAfter(2 * kMicrosPerSecond, [&solo] {
    solo.cluster().RestartSilo(0);
  });
  RetryPolicy policy;
  policy.max_retries = 10;
  policy.initial_backoff_us = 100 * kMicrosPerMilli;
  int retries = 0;
  auto healed = RetryAsync<int64_t>(
      solo.client_executor(), policy, /*seed=*/3,
      [&c] { return c.Call(&VolatileCounter::Value); }, IsTransient,
      [&retries](const Status&) { ++retries; });
  solo.RunFor(30 * kMicrosPerSecond);
  ASSERT_TRUE(healed.Ready());
  ASSERT_TRUE(healed.Get().ok()) << healed.Get().status().ToString();
  EXPECT_GT(retries, 0) << "the outage must have forced at least one retry";
  EXPECT_EQ(healed.Get().value(), 0)
      << "volatile state is lost on crash; only durability saves it";
}

// --- Message faults ----------------------------------------------------------

TEST(MessageFaultTest, DroppedMessagesFailSenderWithUnavailable) {
  RuntimeOptions o;
  o.num_silos = 1;
  SimHarness harness(o);
  RegisterCounterWire();
  harness.cluster().RegisterActorType<VolatileCounter>();
  FaultPlan plan;
  plan.message.drop_prob = 1.0;
  FaultInjector injector(plan);
  injector.Arm(&harness.cluster());
  auto f = harness.cluster().Ref<VolatileCounter>("v").Call(
      &VolatileCounter::Add, int64_t{1});
  harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(f.Ready());
  EXPECT_TRUE(f.Get().status().IsUnavailable());
  EXPECT_GT(injector.messages_dropped(), 0);
}

TEST(MessageFaultTest, DuplicatedDeliveryExecutesNonIdempotentOpTwice) {
  RuntimeOptions o;
  o.num_silos = 1;
  SimHarness harness(o);
  RegisterCounterWire();
  harness.cluster().RegisterActorType<VolatileCounter>();
  FaultPlan plan;
  plan.message.duplicate_prob = 1.0;
  FaultInjector injector(plan);
  injector.Arm(&harness.cluster());
  auto c = harness.cluster().Ref<VolatileCounter>("v");
  auto add = c.Call(&VolatileCounter::Add, int64_t{1});
  harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(add.Ready());
  ASSERT_TRUE(add.Get().ok());
  EXPECT_GT(injector.messages_duplicated(), 0);
  auto v = c.Call(&VolatileCounter::Value);
  harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(v.Ready());
  EXPECT_EQ(v.Get().value(), 2)
      << "at-least-once delivery applies the non-idempotent add twice";
}

// --- Storage faults ----------------------------------------------------------

TEST(StorageFaultTest, PersistenceRetriesHealTransientStorageErrors) {
  RuntimeOptions o;
  o.num_silos = 1;
  SimHarness harness(o);
  RegisterCounterWire();
  harness.cluster().RegisterActorType<DurableCounter>();
  FaultPlan plan;
  plan.seed = 11;
  plan.storage.error_prob = 0.5;
  plan.storage.latency_spike_prob = 0.2;
  FaultInjector injector(plan);
  MemKvStore backing;
  auto faulty = std::make_shared<FaultyStateStorage>(
      std::make_shared<KvStateStorage>(&backing), &injector);
  harness.cluster().RegisterStateStorage("default", faulty);

  auto c = harness.cluster().Ref<DurableCounter>("c");
  for (int i = 0; i < 20; ++i) {
    auto f = c.Call(&DurableCounter::Add, int64_t{1});
    harness.RunFor(kMicrosPerSecond);
    ASSERT_TRUE(f.Ready());
    ASSERT_TRUE(f.Get().ok());
  }
  harness.RunFor(60 * kMicrosPerSecond);  // Drain retried writes.
  EXPECT_GT(injector.storage_errors(), 0) << "the fault model must fire";
  auto retries = c.Call(&DurableCounter::Retries);
  harness.RunFor(kMicrosPerSecond);
  EXPECT_GT(retries.Get().value(), 0) << "writes must have been retried";
  // The latest snapshot on the backing store carries every increment.
  auto stored = backing.Get("grain/test.DurableCounter/c");
  ASSERT_TRUE(stored.ok());
  BufReader r(stored.value());
  CounterState st;
  ASSERT_TRUE(st.Decode(&r).ok());
  EXPECT_EQ(st.value, 20);
}

// --- The acceptance chaos scenario ------------------------------------------

/// One acked data point: which channel it belongs to and its payload.
struct AckedPoint {
  std::string channel_key;
  Micros ts;
  double value;
};

/// Everything a chaos run produces that a deterministic rerun must
/// reproduce exactly.
struct ChaosOutcome {
  int64_t acked_inserts = 0;
  int64_t failed_inserts = 0;
  int64_t client_retries = 0;
  int64_t messages_dropped = 0;
  int64_t messages_duplicated = 0;
  int64_t storage_errors = 0;
  int64_t storage_spikes = 0;
  int64_t silo_kills = 0;
  int64_t silo_restarts = 0;
  int64_t journal_records = 0;
};

constexpr int kChaosSensors = 6;
constexpr int kChaosRounds = 36;

ChaosOutcome RunChaosScenario(PersistPolicy policy) {
  RuntimeOptions options;
  options.num_silos = 3;
  options.workers_per_silo = 2;
  options.seed = 42;
  SimHarness harness(options);
  Cluster& cluster = harness.cluster();

  // Channel/sensor state persists under `policy` behind the fault
  // decorator; loads and writes retry under the unified policy.
  PersistenceOptions persistence;
  persistence.policy = policy;
  persistence.retry.max_retries = 10;
  persistence.retry.initial_backoff_us = 5 * kMicrosPerMilli;
  shm::ShmPlatform::RegisterTypes(cluster, persistence);
  shm::ShmPlatform::ApplyPaperPlacement(cluster);

  FaultPlan plan;
  plan.seed = 2026;
  plan.crashes.push_back(SiloCrashEvent{/*at_us=*/3 * kMicrosPerSecond,
                                        /*silo=*/1,
                                        /*restart_after_us=*/3 *
                                            kMicrosPerSecond});
  plan.message.drop_prob = 0.01;
  plan.message.duplicate_prob = 0.005;
  plan.storage.error_prob = 0.05;
  plan.storage.latency_spike_prob = 0.02;
  FaultInjector injector(plan);

  MemKvStore backing;
  KvStateStorage kv_storage(&backing);
  auto probe = std::make_shared<JournalProbeStorage>(&kv_storage);
  auto faulty = std::make_shared<FaultyStateStorage>(probe, &injector);
  cluster.RegisterStateStorage("default", faulty);

  shm::ShmClientOptions client;
  client.durable_acks = true;
  client.retry.max_retries = 12;
  client.retry.initial_backoff_us = 50 * kMicrosPerMilli;
  client.retry.max_backoff_us = kMicrosPerSecond;
  shm::ShmPlatform platform(&cluster, client);

  shm::ShmTopology topo;
  topo.sensors = kChaosSensors;
  topo.sensors_per_org = kChaosSensors;
  topo.channels_per_sensor = 2;
  topo.virtual_every = 0;
  topo.window_capacity = 4096;

  // Build the topology on a healthy cluster, then unleash the fault plan.
  auto setup = platform.Setup(topo);
  harness.RunFor(10 * kMicrosPerSecond);
  EXPECT_TRUE(setup.Ready());
  EXPECT_TRUE(setup.Get().value().ok());
  injector.Arm(&cluster);

  // Open-loop ingestion across the crash window: every round, each sensor
  // ships one packet of two points (one per channel) with unique payloads.
  struct PendingInsert {
    Future<Status> ack;
    std::vector<AckedPoint> points;
  };
  std::vector<PendingInsert> inserts;
  for (int round = 0; round < kChaosRounds; ++round) {
    Micros ts = harness.Now();
    for (int s = 0; s < kChaosSensors; ++s) {
      double base = s * 1e6 + round;
      std::vector<shm::DataPoint> pts = {{ts, base}, {ts, base + 0.5}};
      PendingInsert pi;
      pi.points = {
          {shm::ShmPlatform::ChannelKey(s, 0), ts, base},
          {shm::ShmPlatform::ChannelKey(s, 1), ts, base + 0.5},
      };
      pi.ack = platform.Insert(topo, s, std::move(pts));
      inserts.push_back(std::move(pi));
    }
    harness.RunFor(250 * kMicrosPerMilli);
  }
  // Let outstanding retries run dry (the retry budget outlives the 3 s
  // outage) and the cluster settle.
  harness.RunFor(120 * kMicrosPerSecond);

  std::map<std::string, std::vector<AckedPoint>> acked_by_channel;
  ChaosOutcome out;
  for (auto& pi : inserts) {
    EXPECT_TRUE(pi.ack.Ready()) << "insert still pending after settle";
    if (pi.ack.Ready() && pi.ack.Get().ok() && pi.ack.Get().value().ok()) {
      ++out.acked_inserts;
      for (const AckedPoint& p : pi.points) {
        acked_by_channel[p.channel_key].push_back(p);
      }
    } else {
      ++out.failed_inserts;
    }
  }
  // The whole point: every point acked before/through the crash is
  // readable after the failed silo's actors reactivated elsewhere.
  for (int s = 0; s < kChaosSensors; ++s) {
    for (int c = 0; c < topo.channels_per_sensor; ++c) {
      auto range = platform.RawRange(topo, s, c, 0,
                                     std::numeric_limits<Micros>::max());
      harness.RunFor(30 * kMicrosPerSecond);
      EXPECT_TRUE(range.Ready());
      if (!range.Ready()) continue;
      Result<shm::RangeReply> rr = range.Get();
      if (!rr.ok()) continue;
      const shm::RangeReply& reply = rr.value();
      EXPECT_TRUE(reply.authorized);
      std::set<std::pair<Micros, double>> present;
      for (const shm::DataPoint& p : reply.points) {
        present.insert({p.ts, p.value});
      }
      for (const AckedPoint& p :
           acked_by_channel[shm::ShmPlatform::ChannelKey(s, c)]) {
        EXPECT_TRUE(present.count({p.ts, p.value}))
            << "acked point lost: " << p.channel_key << " ts=" << p.ts
            << " value=" << p.value;
      }
    }
  }

  out.client_retries = platform.insert_retries();
  out.messages_dropped = injector.messages_dropped();
  out.messages_duplicated = injector.messages_duplicated();
  out.storage_errors = injector.storage_errors();
  out.storage_spikes = injector.storage_spikes();
  out.silo_kills = injector.silo_kills();
  out.silo_restarts = injector.silo_restarts();
  out.journal_records = probe->record_writes;
  return out;
}

class ChaosTest : public ::testing::TestWithParam<PersistPolicy> {};

TEST_P(ChaosTest, NoAckedWriteLostAndRerunIsDeterministic) {
  ChaosOutcome first = RunChaosScenario(GetParam());
  EXPECT_EQ(first.silo_kills, 1);
  EXPECT_EQ(first.silo_restarts, 1);
  EXPECT_GT(first.acked_inserts, 0);
  EXPECT_GT(first.messages_dropped, 0) << "1% drop over hundreds of sends";
  EXPECT_GT(first.storage_errors, 0) << "5% storage errors must fire";
  EXPECT_GT(first.client_retries, 0)
      << "drops and the crash window must force client retries";
  EXPECT_GT(first.journal_records, 0)
      << "durable appends must reach storage as journal records";

  // Same seeds, same virtual time, same everything: the rerun reproduces
  // the exact fault and retry counters.
  ChaosOutcome second = RunChaosScenario(GetParam());
  EXPECT_EQ(first.acked_inserts, second.acked_inserts);
  EXPECT_EQ(first.failed_inserts, second.failed_inserts);
  EXPECT_EQ(first.client_retries, second.client_retries);
  EXPECT_EQ(first.messages_dropped, second.messages_dropped);
  EXPECT_EQ(first.messages_duplicated, second.messages_duplicated);
  EXPECT_EQ(first.storage_errors, second.storage_errors);
  EXPECT_EQ(first.storage_spikes, second.storage_spikes);
  EXPECT_EQ(first.silo_kills, second.silo_kills);
  EXPECT_EQ(first.silo_restarts, second.silo_restarts);
  EXPECT_EQ(first.journal_records, second.journal_records);
  std::printf("chaos[%s]: %lld acked, %lld failed, %lld journal records\n",
              GetParam() == PersistPolicy::kOnEveryUpdate ? "on_every_update"
                                                          : "on_deactivate",
              static_cast<long long>(first.acked_inserts),
              static_cast<long long>(first.failed_inserts),
              static_cast<long long>(first.journal_records));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ChaosTest,
    ::testing::Values(PersistPolicy::kOnEveryUpdate,
                      PersistPolicy::kOnDeactivate),
    [](const ::testing::TestParamInfo<PersistPolicy>& info) {
      return std::string(info.param == PersistPolicy::kOnEveryUpdate
                             ? "OnEveryUpdate"
                             : "OnDeactivate");
    });

// --- Promise-leak gauge at Cluster::Stop -------------------------------------

TEST(PromiseLeakGaugeTest, StopPublishesLeaksObservedDuringClusterLifetime) {
  SimHarness harness{RuntimeOptions{}};
  {
    // A reply handler that is registered and then dropped unfulfilled —
    // the bug class the detector exists for.
    Promise<int> p;
    Future<int> f = p.GetFuture();
    f.OnReady([](Result<int>&&) {});
  }
  harness.cluster().Stop();
  EXPECT_GE(
      harness.cluster().metrics().GetGauge("runtime.leaked_promises")->value(),
      1);
}

TEST(PromiseLeakGaugeTest, CleanShutdownReportsZeroLeaks) {
  SimHarness harness{RuntimeOptions{}};
  RegisterCounterWire();
  harness.cluster().RegisterActorType<VolatileCounter>();
  auto a = harness.cluster().Ref<VolatileCounter>("c");
  auto f = a.Call(&VolatileCounter::Add, int64_t{1});
  harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(f.Ready());
  harness.cluster().Stop();
  EXPECT_EQ(
      harness.cluster().metrics().GetGauge("runtime.leaked_promises")->value(),
      0);
}

}  // namespace
}  // namespace aodb
