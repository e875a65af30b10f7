// End-to-end tests of the Structural Health Monitoring platform under the
// discrete-event simulator: topology setup, ingestion, derived virtual
// channels, aggregation hierarchy, live/raw queries, alerts, access
// control, and persistence.

#include <gtest/gtest.h>

#include "aodb/query.h"
#include "loadgen/shm_loadgen.h"
#include "shm/platform.h"
#include "sim/sim_harness.h"
#include "storage/mem_kv.h"
#include "storage/state_storage.h"

namespace aodb {
namespace shm {
namespace {

class ShmSimTest : public ::testing::Test {
 protected:
  ShmSimTest() : harness_(MakeOptions()), platform_(&harness_.cluster()) {
    ShmPlatform::RegisterTypes(harness_.cluster());
    ShmPlatform::ApplyPaperPlacement(harness_.cluster());
    // Startup assertion: every registered type must have wire methods, so
    // no test hits an unregistered cross-silo call mid-run.
    Status wires = harness_.cluster().CheckWireRegistry();
    EXPECT_TRUE(wires.ok()) << wires.ToString();
  }

  static RuntimeOptions MakeOptions() {
    RuntimeOptions o;
    o.num_silos = 2;
    o.workers_per_silo = 2;
    return o;
  }

  ShmTopology SmallTopology() {
    ShmTopology t;
    t.sensors = 10;
    t.sensors_per_org = 10;
    t.virtual_every = 5;
    t.hour_window_us = 2 * kMicrosPerSecond;
    t.day_window_us = 10 * kMicrosPerSecond;
    t.month_window_us = 60 * kMicrosPerSecond;
    return t;
  }

  Status SetupAndRun(const ShmTopology& t) {
    auto f = platform_.Setup(t);
    harness_.RunFor(30 * kMicrosPerSecond);
    auto r = f.Get();
    return r.ok() ? r.value() : r.status();
  }

  std::vector<DataPoint> MakePacket(Micros start, int n, double value0) {
    std::vector<DataPoint> pts;
    for (int i = 0; i < n; ++i) {
      pts.push_back(DataPoint{start + i * 100 * kMicrosPerMilli,
                              value0 + i});
    }
    return pts;
  }

  SimHarness harness_;
  ShmPlatform platform_;
};

TEST_F(ShmSimTest, SetupCreatesTopology) {
  ShmTopology t = SmallTopology();
  ASSERT_TRUE(SetupAndRun(t).ok());
  // 10 sensors, 20 channels, 2 virtual channels, aggregators, 1 org.
  auto org = harness_.cluster().Ref<OrganizationActor>(ShmPlatform::OrgKey(0));
  auto sensors = org.Call(&OrganizationActor::SensorCount);
  auto channels = org.Call(&OrganizationActor::ChannelKeys);
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(sensors.Get().value(), 10);
  EXPECT_EQ(channels.Get().value().size(), 22u);  // 20 physical + 2 virtual.
}

TEST_F(ShmSimTest, InsertReachesChannelsAndSplitsPacket) {
  ShmTopology t = SmallTopology();
  ASSERT_TRUE(SetupAndRun(t).ok());
  auto f = platform_.Insert(t, 1, MakePacket(harness_.Now(), 20, 0));
  harness_.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(f.Get().ok());
  auto c0 = harness_.cluster()
                .Ref<PhysicalChannelActor>(ShmPlatform::ChannelKey(1, 0))
                .Call(&PhysicalChannelActor::TotalPoints);
  auto c1 = harness_.cluster()
                .Ref<PhysicalChannelActor>(ShmPlatform::ChannelKey(1, 1))
                .Call(&PhysicalChannelActor::TotalPoints);
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(c0.Get().value(), 10);
  EXPECT_EQ(c1.Get().value(), 10);
}

TEST_F(ShmSimTest, AccumulatedChangeTracksMovement) {
  ShmTopology t = SmallTopology();
  ASSERT_TRUE(SetupAndRun(t).ok());
  // Values 0,1,...,9 -> 9 steps of 1.0 accumulated change per channel.
  auto f = platform_.Insert(t, 0, MakePacket(harness_.Now(), 20, 0));
  harness_.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(f.Get().ok());
  auto acc = harness_.cluster()
                 .Ref<PhysicalChannelActor>(ShmPlatform::ChannelKey(0, 0))
                 .Call(&PhysicalChannelActor::AccumulatedChange);
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_DOUBLE_EQ(acc.Get().value(), 9.0);
}

TEST_F(ShmSimTest, VirtualChannelSumsItsSources) {
  ShmTopology t = SmallTopology();
  ASSERT_TRUE(SetupAndRun(t).ok());
  // Sensor 0 has a virtual channel (virtual_every=5). Packet values:
  // channel 0 gets 0..9, channel 1 gets 10..19. After all updates the
  // virtual latest should be latest(c0) + latest(c1) = 9 + 19 = 28.
  auto f = platform_.Insert(t, 0, MakePacket(harness_.Now(), 20, 0));
  harness_.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(f.Get().ok());
  auto latest = harness_.cluster()
                    .Ref<VirtualChannelActor>(ShmPlatform::VirtualKey(0))
                    .Call(&VirtualChannelActor::Latest);
  harness_.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(latest.Get().value().has_data);
  EXPECT_DOUBLE_EQ(latest.Get().value().value, 28.0);
  // And exactly 20 derived points exist (one per source point).
  auto total = harness_.cluster()
                   .Ref<VirtualChannelActor>(ShmPlatform::VirtualKey(0))
                   .Call(&VirtualChannelActor::TotalPoints);
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(total.Get().value(), 20);
}

TEST_F(ShmSimTest, LiveDataReturnsAllChannels) {
  ShmTopology t = SmallTopology();
  ASSERT_TRUE(SetupAndRun(t).ok());
  for (int s = 0; s < t.sensors; ++s) {
    platform_.Insert(t, s, MakePacket(harness_.Now(), 20, s * 100));
  }
  harness_.RunFor(10 * kMicrosPerSecond);
  auto live = platform_.LiveData(t, 0);
  harness_.RunFor(5 * kMicrosPerSecond);
  auto r = live.Get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 22u);
  int with_data = 0;
  for (const auto& e : r.value()) with_data += e.has_data ? 1 : 0;
  EXPECT_EQ(with_data, 22);
}

TEST_F(ShmSimTest, RawRangeFiltersByTime) {
  ShmTopology t = SmallTopology();
  ASSERT_TRUE(SetupAndRun(t).ok());
  Micros base = harness_.Now();
  auto f = platform_.Insert(t, 2, MakePacket(base, 20, 0));
  harness_.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(f.Get().ok());
  // Points in channel 0 are at base + i*100ms for i in 0..9. Query the
  // middle: [base+200ms, base+500ms) -> points at 200,300,400ms.
  auto range = platform_.RawRange(t, 2, 0, base + 200 * kMicrosPerMilli,
                                  base + 500 * kMicrosPerMilli);
  harness_.RunFor(kMicrosPerSecond);
  auto r = range.Get();
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().authorized);
  EXPECT_EQ(r.value().points.size(), 3u);
}

TEST_F(ShmSimTest, AggregatorHierarchyBuildsWindows) {
  ShmTopology t = SmallTopology();
  ASSERT_TRUE(SetupAndRun(t).ok());
  // Insert packets spanning several hour-windows (2s each).
  Micros base = harness_.Now();
  for (int wave = 0; wave < 8; ++wave) {
    platform_.Insert(t, 3, MakePacket(base + wave * kMicrosPerSecond, 20,
                                      wave * 10));
    harness_.RunFor(kMicrosPerSecond);
  }
  harness_.RunFor(5 * kMicrosPerSecond);
  auto aggs = platform_.HourAggregates(t, 3, 0, 0, base + 600 * kMicrosPerSecond);
  harness_.RunFor(kMicrosPerSecond);
  auto r = aggs.Get();
  ASSERT_TRUE(r.ok());
  ASSERT_GE(r.value().size(), 3u);
  for (const auto& w : r.value()) {
    EXPECT_GT(w.count, 0);
    EXPECT_GE(w.max, w.mean);
    EXPECT_LE(w.min, w.mean);
  }
}

TEST_F(ShmSimTest, ThresholdAlertsReachTheUser) {
  ShmTopology t = SmallTopology();
  t.enable_alerts = true;
  t.threshold_high = 15.0;  // Values 16..19 in channel 1 cross it.
  ASSERT_TRUE(SetupAndRun(t).ok());
  auto f = platform_.Insert(t, 1, MakePacket(harness_.Now(), 20, 0));
  harness_.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(f.Get().ok());
  auto alerts = harness_.cluster()
                    .Ref<UserActor>(ShmPlatform::UserKey(0))
                    .Call(&UserActor::TotalAlerts);
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(alerts.Get().value(), 4) << "values 16,17,18,19 cross 15.0";
}

TEST_F(ShmSimTest, CrossTenantAccessIsRejected) {
  ShmTopology t = SmallTopology();
  t.sensors = 20;  // Two organizations.
  ASSERT_TRUE(SetupAndRun(t).ok());
  // A user of org-1 asks org-0 for live data.
  auto live = harness_.cluster()
                  .Ref<OrganizationActor>(ShmPlatform::OrgKey(0))
                  .WithPrincipal(Principal{ShmPlatform::OrgKey(1), "user"})
                  .Call(&OrganizationActor::LiveData);
  harness_.RunFor(5 * kMicrosPerSecond);
  auto r = live.Get();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnauthorized());
  // Raw channel data of org-0 is likewise refused.
  auto range = harness_.cluster()
                   .Ref<PhysicalChannelActor>(ShmPlatform::ChannelKey(0, 0))
                   .WithPrincipal(Principal{ShmPlatform::OrgKey(1), "user"})
                   .Call(&PhysicalChannelActor::Range, Micros{0},
                         Micros{1} << 60);
  harness_.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(range.Get().ok());
  EXPECT_FALSE(range.Get().value().authorized);
  // Admins may read across tenants.
  auto admin = harness_.cluster()
                   .Ref<OrganizationActor>(ShmPlatform::OrgKey(0))
                   .WithPrincipal(Principal{"hq", "admin"})
                   .Call(&OrganizationActor::LiveData);
  harness_.RunFor(5 * kMicrosPerSecond);
  EXPECT_TRUE(admin.Get().ok());
}

TEST_F(ShmSimTest, ChannelStateSurvivesDeactivation) {
  // With a storage provider and deactivate-time persistence, the channel's
  // window and accumulated change survive collection (virtual actor
  // perpetuity with durable state).
  auto backing = std::make_shared<MemKvStore>();
  harness_.cluster().RegisterStateStorage(
      "default", std::make_shared<KvStateStorage>(backing.get()));
  ShmTopology t = SmallTopology();
  ASSERT_TRUE(SetupAndRun(t).ok());
  auto f = platform_.Insert(t, 0, MakePacket(harness_.Now(), 20, 0));
  harness_.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(f.Get().ok());
  // Flush everything and drop activations.
  auto flushed = harness_.cluster().DeactivateAll();
  harness_.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(flushed.Get().ok());
  EXPECT_EQ(harness_.cluster().TotalActivations(), 0u);
  // Reactivate: state must come back from storage.
  auto acc = harness_.cluster()
                 .Ref<PhysicalChannelActor>(ShmPlatform::ChannelKey(0, 0))
                 .Call(&PhysicalChannelActor::AccumulatedChange);
  harness_.RunFor(5 * kMicrosPerSecond);
  EXPECT_DOUBLE_EQ(acc.Get().value(), 9.0);
}

TEST_F(ShmSimTest, IndexedDeclarativeQueriesOverChannels) {
  // With indexing enabled, physical channels register in the AODB type
  // registry and the channels-by-org index, so declarative multi-actor
  // queries (the Bernstein-vision feature the paper builds on) work over
  // the SHM platform.
  ShmTopology t = SmallTopology();
  t.sensors = 20;  // Two organizations (10 sensors each).
  t.sensors_per_org = 10;
  t.enable_indexing = true;
  ASSERT_TRUE(SetupAndRun(t).ok());
  // Index lookup: all physical channels of org-1.
  ActorIndex by_org(kChannelsByOrgIndex);
  auto keys = by_org.Lookup(harness_.cluster(), ShmPlatform::OrgKey(1));
  harness_.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(keys.Ready());
  EXPECT_EQ(keys.Get().value().size(), 20u)
      << "10 sensors x 2 physical channels";
  // Ingest movement into org-1's sensors only, then run an indexed
  // projection: accumulated change per channel of org-1.
  for (int sensor = 10; sensor < 20; ++sensor) {
    platform_.Insert(t, sensor, MakePacket(harness_.Now(), 20, 0));
  }
  harness_.RunFor(10 * kMicrosPerSecond);
  auto changes = QueryByIndex<PhysicalChannelActor>(
      harness_.cluster(), by_org, ShmPlatform::OrgKey(1),
      &PhysicalChannelActor::AccumulatedChange);
  harness_.RunFor(10 * kMicrosPerSecond);
  ASSERT_TRUE(changes.Ready());
  std::vector<double> values = changes.Get().value();
  ASSERT_EQ(values.size(), 20u);
  for (double v : values) {
    EXPECT_DOUBLE_EQ(v, 9.0) << "each channel saw 10 points stepping by 1";
  }
  // Type-wide query spans both organizations' channels.
  auto totals = QueryAll<PhysicalChannelActor>(
      harness_.cluster(), &PhysicalChannelActor::TotalPoints);
  harness_.RunFor(10 * kMicrosPerSecond);
  ASSERT_TRUE(totals.Ready());
  EXPECT_EQ(totals.Get().value().size(), 40u);
}

TEST_F(ShmSimTest, LoadGenDrivesClosedLoopWaves) {
  ShmTopology t = SmallTopology();
  ASSERT_TRUE(SetupAndRun(t).ok());
  LoadGenOptions lg;
  lg.duration_us = 20 * kMicrosPerSecond;
  lg.user_queries = true;
  ShmLoadGen gen(&platform_, t, harness_.client_executor(), lg);
  gen.Start();
  harness_.RunFor(lg.duration_us + 10 * kMicrosPerSecond);
  ASSERT_TRUE(gen.Done());
  const LoadGenReport& report = gen.Finish();
  EXPECT_EQ(report.errors, 0);
  // 10 sensors at ~1 wave/s for 20s (first wave at t=0 is within Start).
  EXPECT_GE(report.inserts_done, 10 * 15);
  EXPECT_GT(report.live_done, 0);
  EXPECT_GT(report.raw_done, 0);
  EXPECT_GT(report.insert_latency_us.count(), 0);
  EXPECT_GT(report.achieved_insert_rps, 5.0);
}

}  // namespace
}  // namespace aodb
}  // namespace shm
