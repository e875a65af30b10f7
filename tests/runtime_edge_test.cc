// Edge cases and properties of the runtime: message ordering under jitter,
// lifecycle races (deactivation vs in-flight messages), restart-with-
// durable-state, principal propagation, reminder management, and silo
// bookkeeping.

#include <gtest/gtest.h>

#include "actor/actor_ref.h"
#include "actor/runtime.h"
#include "sim/sim_harness.h"
#include "storage/mem_kv.h"
#include "storage/persistent_actor.h"
#include "wire_methods.h"

namespace aodb {
namespace {

/// Records the order in which sequence numbers arrive.
class SequenceActor : public ActorBase {
 public:
  static constexpr char kTypeName[] = "edge.Sequence";
  void Push(int64_t seq) { seen_.push_back(seq); }
  std::vector<int64_t> Seen() { return seen_; }

 private:
  std::vector<int64_t> seen_;
};

void RegisterSequenceWire() {
  RegisterWire<SequenceActor>(&SequenceActor::Push, "Push",
                              &SequenceActor::Seen, "Seen");
}

/// Property sweep: per-channel FIFO holds end to end for any jitter level.
class OrderingUnderJitter : public ::testing::TestWithParam<Micros> {};

TEST_P(OrderingUnderJitter, TellsArriveInSendOrder) {
  RuntimeOptions o;
  o.num_silos = 2;
  o.workers_per_silo = 2;
  o.network.jitter_us = GetParam();
  SimHarness harness(o);
  RegisterSequenceWire();
  harness.cluster().RegisterActorType<SequenceActor>();
  auto ref = harness.cluster().Ref<SequenceActor>("seq");
  constexpr int kMessages = 200;
  for (int64_t i = 0; i < kMessages; ++i) {
    ref.Tell(&SequenceActor::Push, i);
  }
  harness.RunFor(30 * kMicrosPerSecond);
  auto f = ref.Call(&SequenceActor::Seen);
  harness.RunFor(kMicrosPerSecond);
  auto seen = f.Get().value();
  ASSERT_EQ(seen.size(), static_cast<size_t>(kMessages));
  for (int64_t i = 0; i < kMessages; ++i) {
    ASSERT_EQ(seen[i], i) << "reordered at position " << i << " with jitter "
                          << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(JitterLevels, OrderingUnderJitter,
                         ::testing::Values(0, 50, 200, 1000, 5000));

struct EdgeCounterState {
  int64_t value = 0;
  void Encode(BufWriter* w) const { w->PutSigned(value); }
  Status Decode(BufReader* r) { return r->GetSigned(&value); }
};

class DurableCounter : public PersistentActor<EdgeCounterState> {
 public:
  static constexpr char kTypeName[] = "edge.DurableCounter";
  DurableCounter()
      : PersistentActor<EdgeCounterState>(PersistenceOptions{
            PersistPolicy::kOnDeactivate, 100, 60 * kMicrosPerSecond,
            "default"}) {}
  int64_t Add(int64_t d) {
    state().value += d;
    MarkDirty();
    return state().value;
  }
  int64_t Value() { return state().value; }
};

TEST(RuntimeRestartTest, StateAndRemindersSurviveClusterRestart) {
  // Durable media shared across two cluster generations.
  MemKvStore grain_backing;
  MemKvStore system_kv;
  auto storage = std::make_shared<KvStateStorage>(&grain_backing);
  RegisterWire<DurableCounter>(&DurableCounter::Add, "Add",
                               &DurableCounter::Value, "Value");

  RuntimeOptions o;
  o.num_silos = 2;
  {
    SimHarness gen1(o, &system_kv);
    gen1.cluster().RegisterActorType<DurableCounter>();
    gen1.cluster().RegisterStateStorage("default", storage);
    auto c = gen1.cluster().Ref<DurableCounter>("persist-me");
    c.Tell(&DurableCounter::Add, int64_t{41});
    gen1.RunFor(5 * kMicrosPerSecond);
    ASSERT_TRUE(gen1.cluster()
                    .reminders()
                    .Register(ActorId{DurableCounter::kTypeName, "persist-me"},
                              "tick", kMicrosPerSecond)
                    .ok());
    auto flushed = gen1.cluster().DeactivateAll();
    gen1.RunFor(5 * kMicrosPerSecond);
    ASSERT_TRUE(flushed.Get().value().ok());
  }  // "Process exit".

  SimHarness gen2(o, &system_kv);
  gen2.cluster().RegisterActorType<DurableCounter>();
  gen2.cluster().RegisterStateStorage("default", storage);
  ASSERT_TRUE(gen2.cluster().reminders().Load().ok());
  EXPECT_EQ(gen2.cluster().reminders().Active(), 1u)
      << "reminders restore from the system store";
  auto c = gen2.cluster().Ref<DurableCounter>("persist-me");
  auto v = c.Call(&DurableCounter::Value);
  gen2.RunFor(5 * kMicrosPerSecond);
  EXPECT_EQ(v.Get().value(), 41) << "grain state restores from storage";
}

TEST(RuntimeLifecycleTest, MessagesRacingDeactivationAreNotLost) {
  RuntimeOptions o;
  o.num_silos = 1;
  o.lifecycle.enable_idle_deactivation = true;
  o.lifecycle.idle_timeout_us = 500 * kMicrosPerMilli;
  o.lifecycle.scan_interval_us = 100 * kMicrosPerMilli;
  SimHarness harness(o);
  RegisterSequenceWire();
  harness.cluster().RegisterActorType<SequenceActor>();
  harness.cluster().StartIdleScanner();
  auto ref = harness.cluster().Ref<SequenceActor>("racer");
  // Bursts separated by idle windows long enough to trigger deactivation.
  // Every burst must be fully observable within its own activation (no
  // message lost to the lifecycle machinery), and the activation must
  // actually be collected between bursts.
  for (int burst = 0; burst < 5; ++burst) {
    for (int64_t i = 0; i < 10; ++i) ref.Tell(&SequenceActor::Push, i);
    auto f = ref.Call(&SequenceActor::Seen);
    harness.RunFor(100 * kMicrosPerMilli);
    ASSERT_TRUE(f.Ready());
    EXPECT_EQ(f.Get().value().size(), 10u)
        << "burst " << burst << " incomplete";
    harness.RunFor(3 * kMicrosPerSecond);  // Idle: collected.
    EXPECT_EQ(harness.cluster().TotalActivations(), 0u)
        << "idle activation should be collected between bursts";
  }
  SiloStats stats = harness.cluster().silo(0)->Stats();
  EXPECT_GE(stats.activations_removed, 5);
  EXPECT_EQ(stats.messages_processed, 5 * 11);
}

TEST(RuntimePrincipalTest, PrincipalTravelsWithEveryMessage) {
  class WhoAmI : public ActorBase {
   public:
    std::string CallerTenant() { return ctx().caller().tenant; }
    void Record() { tenants_.push_back(ctx().caller().tenant); }
    std::vector<std::string> Recorded() { return tenants_; }

   private:
    std::vector<std::string> tenants_;
  };
  RuntimeOptions o;
  SimHarness harness(o);
  RegisterWireAs("edge.WhoAmI", &WhoAmI::CallerTenant, "CallerTenant",
                 &WhoAmI::Record, "Record", &WhoAmI::Recorded, "Recorded");
  harness.cluster().RegisterActorType(
      "edge.WhoAmI", [](const ActorId&) { return std::make_unique<WhoAmI>(); });
  auto plain = harness.cluster().RefAs<WhoAmI>("edge.WhoAmI", "w");
  auto alice = plain.WithPrincipal(Principal{"alice", "user"});
  auto bob = plain.WithPrincipal(Principal{"bob", "admin"});
  auto f1 = alice.Call(&WhoAmI::CallerTenant);
  auto f2 = bob.Call(&WhoAmI::CallerTenant);
  auto f3 = plain.Call(&WhoAmI::CallerTenant);
  alice.Tell(&WhoAmI::Record);
  bob.Tell(&WhoAmI::Record);
  harness.RunFor(5 * kMicrosPerSecond);
  EXPECT_EQ(f1.Get().value(), "alice");
  EXPECT_EQ(f2.Get().value(), "bob");
  EXPECT_EQ(f3.Get().value(), "");
  auto rec = plain.Call(&WhoAmI::Recorded);
  harness.RunFor(kMicrosPerSecond);
  EXPECT_EQ(rec.Get().value(),
            (std::vector<std::string>{"alice", "bob"}));
}

TEST(RuntimeReminderTest, UnregisterStopsFiring) {
  class Armed : public ActorBase {
   public:
    void ReceiveReminder(const std::string&) override { ++count_; }
    int Count() { return count_; }

   private:
    int count_ = 0;
  };
  MemKvStore system_kv;
  RuntimeOptions o;
  SimHarness harness(o, &system_kv);
  RegisterWireAs("edge.Armed", &Armed::Count, "Count");
  harness.cluster().RegisterActorType(
      "edge.Armed", [](const ActorId&) { return std::make_unique<Armed>(); });
  ActorId id{"edge.Armed", "a"};
  ASSERT_TRUE(harness.cluster()
                  .reminders()
                  .Register(id, "r", 200 * kMicrosPerMilli)
                  .ok());
  harness.RunFor(kMicrosPerSecond + 50 * kMicrosPerMilli);
  ASSERT_TRUE(harness.cluster().reminders().Unregister(id, "r").ok());
  auto before =
      harness.cluster().RefAs<Armed>("edge.Armed", "a").Call(&Armed::Count);
  harness.RunFor(kMicrosPerSecond);
  int count_at_unregister = before.Get().value();
  EXPECT_GE(count_at_unregister, 4);
  harness.RunFor(5 * kMicrosPerSecond);
  auto after =
      harness.cluster().RefAs<Armed>("edge.Armed", "a").Call(&Armed::Count);
  harness.RunFor(kMicrosPerSecond);
  EXPECT_EQ(after.Get().value(), count_at_unregister)
      << "no reminder tick may fire after unregistration";
  EXPECT_EQ(harness.cluster().reminders().Active(), 0u);
  auto listed = system_kv.List("rem/");
  EXPECT_TRUE(listed.value().empty()) << "durable record removed";
}

TEST(RuntimeReminderTest, TicksReachTheSiloAsWireTells) {
  // Reminder ticks start on the client node, so on any cluster they cross a
  // node boundary: each one is a wire tell of the runtime's
  // ActorBase::ReceiveReminder registration, which every type answers.
  class Ticked : public ActorBase {
   public:
    void ReceiveReminder(const std::string&) override { ++count_; }
    int Count() { return count_; }

   private:
    int count_ = 0;
  };
  RuntimeOptions o;
  o.num_silos = 2;
  SimHarness harness(o);
  Cluster& cluster = harness.cluster();
  cluster.RegisterActorType(
      "edge.Ticked", [](const ActorId&) { return std::make_unique<Ticked>(); });
  // The runtime's reminder method is not one of the type's own methods.
  Status wires = cluster.CheckWireRegistry();
  ASSERT_FALSE(wires.ok());
  EXPECT_NE(wires.ToString().find("edge.Ticked"), std::string::npos)
      << wires.ToString();
  RegisterWireAs("edge.Ticked", &Ticked::Count, "Count");
  EXPECT_TRUE(cluster.CheckWireRegistry().ok());

  const int64_t before = cluster.SnapshotMetrics().counters.at("wire.requests");
  ASSERT_TRUE(cluster.reminders()
                  .Register({"edge.Ticked", "t"}, "r", 200 * kMicrosPerMilli)
                  .ok());
  harness.RunFor(kMicrosPerSecond + 50 * kMicrosPerMilli);
  const int64_t ticks =
      cluster.SnapshotMetrics().counters.at("wire.requests") - before;
  EXPECT_EQ(ticks, 5) << "one wire frame per 200 ms tick over 1.05 s";
  auto count = cluster.RefAs<Ticked>("edge.Ticked", "t").Call(&Ticked::Count);
  harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(count.Ready());
  ASSERT_TRUE(count.Get().ok()) << count.Get().status().ToString();
  EXPECT_EQ(count.Get().value(), ticks) << "every tick frame was delivered";
}

TEST(RuntimeStatsTest, SiloCountersTrackActivity) {
  RuntimeOptions o;
  o.num_silos = 1;
  SimHarness harness(o);
  RegisterSequenceWire();
  harness.cluster().RegisterActorType<SequenceActor>();
  for (int a = 0; a < 5; ++a) {
    auto ref =
        harness.cluster().Ref<SequenceActor>("s" + std::to_string(a));
    for (int64_t m = 0; m < 4; ++m) ref.Tell(&SequenceActor::Push, m);
  }
  harness.RunFor(10 * kMicrosPerSecond);
  SiloStats stats = harness.cluster().silo(0)->Stats();
  EXPECT_EQ(stats.activations_created, 5);
  EXPECT_EQ(stats.messages_processed, 20);
  EXPECT_EQ(harness.cluster().silo(0)->ActivationCount(), 5u);
  EXPECT_EQ(harness.cluster().directory().Count(), 5u);
}

TEST(RuntimeErrorTest, FutureReturningMethodErrorPropagatesToCaller) {
  class Failing : public ActorBase {
   public:
    Future<int64_t> Doomed() {
      return Future<int64_t>::FromError(Status::ResourceExhausted("nope"));
    }
  };
  RuntimeOptions o;
  SimHarness harness(o);
  RegisterWireAs("edge.Failing", &Failing::Doomed, "Doomed");
  harness.cluster().RegisterActorType(
      "edge.Failing",
      [](const ActorId&) { return std::make_unique<Failing>(); });
  auto f = harness.cluster()
               .RefAs<Failing>("edge.Failing", "f")
               .Call(&Failing::Doomed);
  harness.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(f.Ready());
  EXPECT_FALSE(f.Get().ok());
  EXPECT_EQ(f.Get().status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace aodb
