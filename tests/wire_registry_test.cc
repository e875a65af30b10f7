// Tests of the serialized invocation boundary: method-registry self-checks,
// two-lane dispatch (closure lane for same-silo sends, wire lane for
// cross-silo sends), measured byte accounting, wire-frame corruption
// surfacing as clean Status::Corruption, FailedPrecondition for a remote
// call of an unregistered method, registry completeness checking, and the
// promise double-completion guard.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "actor/fault.h"
#include "actor/method_registry.h"
#include "cattle/platform.h"
#include "shm/platform.h"
#include "sim/sim_harness.h"

namespace aodb {
namespace {

// Perfectly wire-encodable methods that are deliberately never registered
// for this type (RepeatedRegistrationIsIdempotent registers Echo under
// another type name; Twice is registered nowhere).
class UnregisteredActor : public ActorBase {
 public:
  static constexpr char kTypeName[] = "wiretest.Unregistered";
  int64_t Echo(int64_t v) { return v; }
  int64_t Twice(int64_t v) { return 2 * v; }
};

RuntimeOptions TestOptions(int silos) {
  RuntimeOptions o;
  o.num_silos = silos;
  o.workers_per_silo = 2;
  return o;
}

void RegisterPlatforms(Cluster& cluster) {
  shm::ShmPlatform::RegisterTypes(cluster);
  cattle::CattlePlatform::RegisterTypes(cluster);
}

shm::ShmTopology SmallTopology() {
  shm::ShmTopology t;
  t.sensors = 4;
  t.sensors_per_org = 4;
  t.virtual_every = 2;
  t.hour_window_us = 2 * kMicrosPerSecond;
  t.day_window_us = 10 * kMicrosPerSecond;
  t.month_window_us = 60 * kMicrosPerSecond;
  return t;
}

std::vector<shm::DataPoint> MakePacket(Micros start, int n) {
  std::vector<shm::DataPoint> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back(shm::DataPoint{start + i * kMicrosPerMilli, 1.5 + i});
  }
  return pts;
}

// --- Registry ----------------------------------------------------------------

TEST(MethodRegistryTest, MethodIdsArePinnedFnv1a) {
  // The wire format depends on these ids never changing (DESIGN.md,
  // "Invocation boundary & wire format"). Pin one known value.
  EXPECT_EQ(MethodRegistry::MethodId("Insert"), 0x5ada999b33ccc808ULL);
  EXPECT_NE(MethodRegistry::MethodId("Insert"),
            MethodRegistry::MethodId("insert"));
}

TEST(MethodRegistryTest, EveryRegisteredMethodPassesCodecSelfCheck) {
  SimHarness harness(TestOptions(1));
  RegisterPlatforms(harness.cluster());
  Status st = MethodRegistry::Global().SelfCheckAll();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(MethodRegistry::Global().TotalMethods(), 80u)
      << "both platforms plus aodb core should register their full surface";
}

TEST(MethodRegistryTest, RepeatedRegistrationIsIdempotent) {
  MethodRegistry& reg = MethodRegistry::Global();
  ASSERT_TRUE(reg.Register("wiretest.Idem", &UnregisteredActor::Echo, "Echo")
                  .ok());
  size_t count = reg.MethodCount("wiretest.Idem");
  ASSERT_TRUE(reg.Register("wiretest.Idem", &UnregisteredActor::Echo, "Echo")
                  .ok());
  EXPECT_EQ(reg.MethodCount("wiretest.Idem"), count);
  EXPECT_NE(reg.Find(&UnregisteredActor::Echo), nullptr);
}

TEST(MethodRegistryTest, CompletenessCheckNamesUncoveredTypes) {
  SimHarness harness(TestOptions(1));
  RegisterPlatforms(harness.cluster());
  EXPECT_TRUE(harness.cluster().CheckWireRegistry().ok());
  harness.cluster().RegisterActorType<UnregisteredActor>();
  Status st = harness.cluster().CheckWireRegistry();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find(UnregisteredActor::kTypeName),
            std::string::npos)
      << st.ToString();
}

// --- Two-lane dispatch -------------------------------------------------------

TEST(WireLaneTest, RemoteSendsNeverUseClosureLane) {
  SimHarness harness(TestOptions(3));
  RegisterPlatforms(harness.cluster());
  shm::ShmPlatform::ApplyPaperPlacement(harness.cluster());
  ASSERT_TRUE(harness.cluster().CheckWireRegistry().ok());
  shm::ShmPlatform platform(&harness.cluster());
  shm::ShmTopology t = SmallTopology();
  auto setup = platform.Setup(t);
  harness.RunFor(30 * kMicrosPerSecond);
  ASSERT_TRUE(setup.Get().ok()) << setup.Get().status().ToString();
  for (int s = 0; s < t.sensors; ++s) {
    auto f = platform.Insert(t, s, MakePacket(harness.Now(), 10));
    harness.RunFor(2 * kMicrosPerSecond);
    ASSERT_TRUE(f.Get().ok());
  }
  auto live = platform.LiveData(t, 0);
  harness.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(live.Get().ok());

  const auto c = harness.cluster().SnapshotMetrics().counters;
  EXPECT_GT(c.at("wire.requests"), 0);
  EXPECT_GT(c.at("wire.replies"), 0);
  EXPECT_GT(c.at("wire.request_bytes"), c.at("wire.requests"))
      << "every encoded request frame is larger than one byte";
  EXPECT_GT(c.at("wire.reply_bytes"), c.at("wire.replies"));
  EXPECT_EQ(c.at("wire.decode_failures"), 0);
}

TEST(WireLaneTest, SameSiloSendsKeepTheClosureFastPath) {
  // One silo: all actor-to-actor traffic is silo-local and must stay on the
  // zero-copy closure lane; only client -> silo calls cross the wire.
  SimHarness harness(TestOptions(1));
  RegisterPlatforms(harness.cluster());
  shm::ShmPlatform platform(&harness.cluster());
  shm::ShmTopology t = SmallTopology();
  auto setup = platform.Setup(t);
  harness.RunFor(30 * kMicrosPerSecond);
  ASSERT_TRUE(setup.Get().ok());
  auto f = platform.Insert(t, 0, MakePacket(harness.Now(), 20));
  harness.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(f.Get().ok());

  const auto c = harness.cluster().SnapshotMetrics().counters;
  EXPECT_GT(c.at("wire.local_closure_sends"), 0)
      << "co-located sensor->channel->aggregator sends must not serialize";
  EXPECT_GT(c.at("wire.requests"), 0) << "client calls still cross the wire";
}

TEST(WireLaneTest, WireAndClosureLanesProduceIdenticalResults) {
  // The same cattle scenario through a mostly-local single-silo cluster and
  // a 3-silo cluster (every client call and most actor hops on the
  // wire lane) must be observationally identical.
  auto run = [](int silos) {
    SimHarness harness(TestOptions(silos));
    RegisterPlatforms(harness.cluster());
    cattle::CattlePlatform platform(&harness.cluster());
    auto reg = platform.RegisterCow("cow-1", "farm-1", "Angus");
    harness.RunFor(10 * kMicrosPerSecond);
    EXPECT_TRUE(reg.Get().ok() && reg.Get().value().ok());
    auto cow = harness.cluster().Ref<cattle::CowActor>("cow-1");
    for (int i = 0; i < 3; ++i) {
      cattle::CollarReading r;
      r.ts = harness.Now();
      r.position = cattle::GeoPoint{10.0 + i, 20.0 + i};
      r.speed_mps = 0.5 * i;
      auto ack = cow.Call(&cattle::CowActor::ReportCollar, r);
      harness.RunFor(kMicrosPerSecond);
      EXPECT_TRUE(ack.Get().ok() && ack.Get().value().ok());
    }
    auto info = cow.Call(&cattle::CowActor::Info);
    auto traj = cow.Call(&cattle::CowActor::Trajectory, Micros{0},
                         Micros{1} << 60);
    harness.RunFor(2 * kMicrosPerSecond);
    EXPECT_TRUE(info.Get().ok());
    EXPECT_TRUE(traj.Get().ok());
    return std::make_pair(info.Get().value(), traj.Get().value());
  };
  auto [info_local, traj_local] = run(1);
  auto [info_wire, traj_wire] = run(3);
  EXPECT_EQ(info_local.owner_farmer, info_wire.owner_farmer);
  EXPECT_EQ(info_local.breed, info_wire.breed);
  ASSERT_EQ(traj_local.size(), traj_wire.size());
  for (size_t i = 0; i < traj_local.size(); ++i) {
    EXPECT_EQ(traj_local[i].position.lat, traj_wire[i].position.lat);
    EXPECT_EQ(traj_local[i].speed_mps, traj_wire[i].speed_mps);
  }
}

// --- Measured byte accounting ------------------------------------------------

TEST(WireBytesTest, MeasuredRequestBytesScaleWithPayload) {
  SimHarness harness(TestOptions(1));
  RegisterPlatforms(harness.cluster());
  shm::ShmPlatform platform(&harness.cluster());
  shm::ShmTopology t = SmallTopology();
  auto setup = platform.Setup(t);
  harness.RunFor(30 * kMicrosPerSecond);
  ASSERT_TRUE(setup.Get().ok());

  auto measure = [&](int points) {
    const auto before = harness.cluster().SnapshotMetrics().counters;
    auto f = platform.Insert(t, 0, MakePacket(harness.Now(), points));
    harness.RunFor(5 * kMicrosPerSecond);
    EXPECT_TRUE(f.Get().ok());
    const auto after = harness.cluster().SnapshotMetrics().counters;
    EXPECT_EQ(after.at("wire.requests") - before.at("wire.requests"), 1)
        << "exactly the client Insert call crosses the wire in one silo";
    return after.at("wire.request_bytes") - before.at("wire.request_bytes");
  };
  int64_t small = measure(1);
  int64_t large = measure(100);
  // Every DataPoint costs at least 9 encoded bytes (varint ts + 8-byte
  // double); the measured frame sizes must reflect the real payload.
  EXPECT_GT(small, 0);
  EXPECT_GT(large, small + 99 * 9);
}

// --- Corruption --------------------------------------------------------------

TEST(WireCorruptionTest, CorruptedFramesSurfaceAsStatusCorruption) {
  SimHarness harness(TestOptions(1));
  RegisterPlatforms(harness.cluster());
  FaultPlan plan;
  plan.message.corrupt_prob = 1.0;
  FaultInjector injector(plan);
  injector.Arm(&harness.cluster());

  auto cow = harness.cluster().Ref<cattle::CowActor>("cow-x");
  auto f = cow.Call(&cattle::CowActor::Register, std::string("farm-x"),
                    std::string("Angus"), harness.Now());
  harness.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(f.Ready());
  ASSERT_FALSE(f.Get().ok());
  EXPECT_EQ(f.Get().status().code(), StatusCode::kCorruption)
      << f.Get().status().ToString();
  EXPECT_GT(injector.messages_corrupted(), 0);
  EXPECT_GT(
      harness.cluster().SnapshotMetrics().counters.at("wire.decode_failures"),
      0)
      << "the receiving silo must reject the mangled request frame";
}

// --- Unregistered methods ----------------------------------------------------

TEST(WireRegistrationTest, UnregisteredRemoteMethodFailsWithTypeName) {
  // A client call always crosses a node boundary, and a remote send is a
  // wire frame or nothing: there is no closure fallback to take. Twice has
  // no registration at all, so the sender refuses it; Echo is registered
  // for another type only, so the receiving silo refuses it.
  SimHarness harness(TestOptions(1));
  harness.cluster().RegisterActorType<UnregisteredActor>();
  auto ref = harness.cluster().Ref<UnregisteredActor>("x");
  for (auto method : {&UnregisteredActor::Twice, &UnregisteredActor::Echo}) {
    auto f = ref.Call(method, int64_t{7});
    harness.RunFor(kMicrosPerSecond);
    ASSERT_TRUE(f.Ready());
    ASSERT_FALSE(f.Get().ok());
    EXPECT_EQ(f.Get().status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(f.Get().status().ToString().find(UnregisteredActor::kTypeName),
              std::string::npos)
        << f.Get().status().ToString();
  }

  // A caller that keeps sending is counted on every refusal but logged
  // once per actor type, so one missing registration cannot flood the log.
  SimHarness fresh(TestOptions(1));
  fresh.cluster().RegisterActorType<UnregisteredActor>();
  auto again = fresh.cluster().Ref<UnregisteredActor>("y");
  testing::internal::CaptureStderr();
  std::vector<Future<int64_t>> refused;
  for (int i = 0; i < 50; ++i) {
    refused.push_back(again.Call(&UnregisteredActor::Twice, int64_t{i}));
  }
  fresh.RunFor(kMicrosPerSecond);
  std::string log = testing::internal::GetCapturedStderr();
  for (auto& f : refused) {
    ASSERT_TRUE(f.Ready());
    EXPECT_EQ(f.Get().status().code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(
      fresh.cluster().SnapshotMetrics().counters.at("wire.unregistered_sends"),
      50);
  size_t error_lines = 0;
  for (size_t pos = log.find("[ERROR"); pos != std::string::npos;
       pos = log.find("[ERROR", pos + 1)) {
    ++error_lines;
  }
  EXPECT_EQ(error_lines, 1u) << log;
}

// --- Promise double-completion guard ----------------------------------------

TEST(PromiseGuardTest, FirstCompletionWinsAndDuplicateIsCounted) {
  int64_t before = PromiseDuplicatesDropped();
  Promise<int> p;
  auto f = p.GetFuture();
  p.SetValue(1);
  p.SetValue(2);
  ASSERT_TRUE(f.Ready());
  EXPECT_EQ(f.Get().value(), 1) << "the first completion must win";
  EXPECT_EQ(PromiseDuplicatesDropped(), before + 1);
}

TEST(PromiseGuardTest, DuplicateWireDeliveryDropsSecondReply) {
  SimHarness harness(TestOptions(1));
  RegisterPlatforms(harness.cluster());
  FaultPlan plan;
  plan.message.duplicate_prob = 1.0;
  FaultInjector injector(plan);
  injector.Arm(&harness.cluster());

  int64_t before = PromiseDuplicatesDropped();
  auto farmer = harness.cluster().Ref<cattle::FarmerActor>("farm-d");
  auto f = farmer.Call(&cattle::FarmerActor::HerdSize);
  harness.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(f.Ready());
  EXPECT_GT(injector.messages_duplicated(), 0);
  EXPECT_GT(PromiseDuplicatesDropped(), before)
      << "the duplicated delivery's second reply must be dropped, not "
         "double-complete the caller's promise";
}

}  // namespace
}  // namespace aodb
