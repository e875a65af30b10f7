// Property-style tests of the SHM platform's data structures and
// invariants: state codec round trips under random contents, journal-delta
// replay against direct appends, mutated deltas, packet splitting across
// channel counts, window capacity bounds, aggregator correctness against a
// reference computation, and topology sweeps.

#include <cstdio>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "shm/platform.h"
#include "sim/sim_harness.h"

namespace aodb {
namespace shm {
namespace {

// --- Codec round trips ----------------------------------------------------------

ChannelState RandomChannelState(Rng* rng) {
  ChannelState st;
  st.config.org_key = "org-" + std::to_string(rng->NextBelow(100));
  st.config.aggregator_key = "agg-" + std::to_string(rng->NextBelow(100));
  st.config.virtual_key = rng->Bernoulli(0.5) ? "v-1" : "";
  st.config.alert_user_key = rng->Bernoulli(0.3) ? "user-1" : "";
  st.config.threshold_low = rng->Uniform(-100, 0);
  st.config.threshold_high = rng->Uniform(0, 100);
  st.config.has_threshold_low = rng->Bernoulli(0.5);
  st.config.has_threshold_high = rng->Bernoulli(0.5);
  st.config.window_capacity = static_cast<int>(rng->NextBelow(2000)) + 1;
  st.config.indexed = rng->Bernoulli(0.5);
  int points = static_cast<int>(rng->NextBelow(200));
  for (int i = 0; i < points; ++i) {
    st.window.push_back(DataPoint{static_cast<Micros>(rng->NextBelow(1u << 30)),
                                  rng->Normal(0, 50)});
  }
  st.accumulated_change = rng->Uniform(0, 1e6);
  st.total_points = static_cast<int64_t>(rng->NextBelow(1u << 30));
  return st;
}

class ChannelStateRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChannelStateRoundTrip, EncodeDecodeIsIdentity) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    ChannelState original = RandomChannelState(&rng);
    BufWriter w;
    original.Encode(&w);
    ChannelState decoded;
    BufReader r(w.data());
    ASSERT_TRUE(decoded.Decode(&r).ok());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(decoded.config.org_key, original.config.org_key);
    EXPECT_EQ(decoded.config.aggregator_key, original.config.aggregator_key);
    EXPECT_EQ(decoded.config.virtual_key, original.config.virtual_key);
    EXPECT_EQ(decoded.config.has_threshold_high,
              original.config.has_threshold_high);
    EXPECT_EQ(decoded.config.window_capacity,
              original.config.window_capacity);
    EXPECT_EQ(decoded.config.indexed, original.config.indexed);
    ASSERT_EQ(decoded.window.size(), original.window.size());
    for (size_t i = 0; i < original.window.size(); ++i) {
      EXPECT_EQ(decoded.window[i].ts, original.window[i].ts);
      EXPECT_DOUBLE_EQ(decoded.window[i].value, original.window[i].value);
    }
    EXPECT_DOUBLE_EQ(decoded.accumulated_change,
                     original.accumulated_change);
    EXPECT_EQ(decoded.total_points, original.total_points);
  }
}

std::vector<DataPoint> RandomPoints(Rng* rng, int max_points) {
  std::vector<DataPoint> points(rng->NextBelow(max_points + 1));
  for (DataPoint& p : points) {
    p = DataPoint{static_cast<Micros>(rng->NextBelow(1u << 30)),
                  rng->Normal(0, 50)};
  }
  return points;
}

std::string EncodedState(const ChannelState& st) {
  BufWriter w;
  st.Encode(&w);
  return w.Release();
}

TEST_P(ChannelStateRoundTrip, DeltaReplayEqualsDirectAppend) {
  Rng rng(GetParam());
  int evicting = 0;
  for (int round = 0; round < 20; ++round) {
    ChannelState direct = RandomChannelState(&rng);
    // Half the rounds get a window small enough for appends to evict.
    if (round % 2 == 0) {
      direct.config.window_capacity = static_cast<int>(rng.NextBelow(64)) + 1;
    }
    ChannelState replayed = direct;
    for (int batch = 0; batch < 8; ++batch) {
      std::vector<DataPoint> points = RandomPoints(&rng, 30);
      size_t before = direct.window.size();
      direct.AppendPoints(points);
      if (direct.window.size() < before + points.size()) ++evicting;
      BufWriter delta;
      ChannelState::EncodeDelta(points, &delta);
      BufReader r(delta.data());
      ASSERT_TRUE(replayed.ApplyDelta(&r).ok());
      EXPECT_TRUE(r.AtEnd());
    }
    EXPECT_EQ(EncodedState(replayed), EncodedState(direct));
  }
  EXPECT_GT(evicting, 0) << "no batch exercised capacity eviction";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelStateRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5));

/// Applies one random mutation: flip a bit, truncate the tail, or append
/// garbage. Returns true if the bytes actually changed.
bool Mutate(Rng* rng, std::string* bytes) {
  switch (rng->NextBelow(3)) {
    case 0: {
      if (bytes->empty()) return false;
      size_t pos = rng->NextBelow(bytes->size());
      (*bytes)[pos] = static_cast<char>(static_cast<uint8_t>((*bytes)[pos]) ^
                                        (1u << rng->NextBelow(8)));
      return true;
    }
    case 1: {
      if (bytes->empty()) return false;
      bytes->resize(rng->NextBelow(bytes->size()));
      return true;
    }
    default:
      for (int i = 0; i < 8; ++i) {
        bytes->push_back(static_cast<char>(rng->NextBelow(256)));
      }
      return true;
  }
}

TEST(ShmCodecTest, MutatedChannelDeltaIsCorruptionOrAValidState) {
  // A journal record is parsed from bytes read back from storage: a
  // mutated one must be rejected as Corruption with the state untouched,
  // or decode into a well-formed state. Fixed seeds, printed for replay.
  for (uint64_t seed : {11u, 12u, 13u}) {
    std::printf("delta mutation sweep: seed %llu\n",
                static_cast<unsigned long long>(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    int rejected = 0;
    int accepted = 0;
    for (int i = 0; i < 1000; ++i) {
      ChannelState base = RandomChannelState(&rng);
      base.config.window_capacity = static_cast<int>(rng.NextBelow(300)) + 1;
      while (static_cast<int>(base.window.size()) >
             base.config.window_capacity) {
        base.window.pop_front();
      }
      BufWriter w;
      ChannelState::EncodeDelta(RandomPoints(&rng, 20), &w);
      std::string delta = w.Release();
      if (!Mutate(&rng, &delta)) continue;
      ChannelState st = base;
      BufReader r(delta);
      Status applied = st.ApplyDelta(&r);
      if (!applied.ok()) {
        ASSERT_TRUE(applied.IsCorruption()) << applied.ToString();
        EXPECT_EQ(EncodedState(st), EncodedState(base))
            << "a rejected delta must leave the state untouched";
        ++rejected;
        continue;
      }
      ++accepted;
      EXPECT_LE(static_cast<int>(st.window.size()), st.config.window_capacity);
      EXPECT_GE(st.total_points, base.total_points);
      std::string encoded = EncodedState(st);
      ChannelState decoded;
      BufReader back(encoded);
      EXPECT_TRUE(decoded.Decode(&back).ok());
    }
    EXPECT_GT(rejected, 0);
    EXPECT_GT(accepted, 0) << "bit flips in point values still decode";
  }
}

TEST(ShmCodecTest, TruncatedChannelStateIsRejected) {
  Rng rng(9);
  ChannelState st = RandomChannelState(&rng);
  BufWriter w;
  st.Encode(&w);
  for (size_t cut : {size_t{0}, w.size() / 3, w.size() - 1}) {
    std::string data = w.data().substr(0, cut);
    ChannelState decoded;
    BufReader r(data);
    EXPECT_FALSE(decoded.Decode(&r).ok())
        << "decode must fail when truncated to " << cut << " bytes";
  }
}

TEST(ShmCodecTest, VirtualChannelStateRoundTrips) {
  VirtualChannelState st;
  st.config.org_key = "org-5";
  st.config.aggregator_key = "agg";
  st.config.source_keys = {"s1.c0", "s1.c1", "s2.c0"};
  st.config.window_capacity = 77;
  st.latest_by_source = {{"s1.c0", 1.5}, {"s1.c1", -2.25}};
  st.window.push_back(DataPoint{123456, -0.75});
  st.total_points = 42;
  BufWriter w;
  st.Encode(&w);
  VirtualChannelState decoded;
  BufReader r(w.data());
  ASSERT_TRUE(decoded.Decode(&r).ok());
  EXPECT_EQ(decoded.config.source_keys, st.config.source_keys);
  EXPECT_EQ(decoded.latest_by_source, st.latest_by_source);
  EXPECT_EQ(decoded.total_points, 42);
}

TEST(ShmCodecTest, OrganizationStateRoundTrips) {
  OrganizationState st;
  st.name = "Great Belt";
  st.projects.push_back(Project{"p0", "East bridge", {"s0", "s1"}});
  st.projects.push_back(Project{"p1", "West bridge", {}});
  st.user_keys = {"user-0"};
  st.channel_keys = {"s0.c0", "s0.c1", "s0.v"};
  BufWriter w;
  st.Encode(&w);
  OrganizationState decoded;
  BufReader r(w.data());
  ASSERT_TRUE(decoded.Decode(&r).ok());
  EXPECT_EQ(decoded.name, st.name);
  ASSERT_EQ(decoded.projects.size(), 2u);
  EXPECT_EQ(decoded.projects[0].sensor_keys, st.projects[0].sensor_keys);
  EXPECT_EQ(decoded.channel_keys, st.channel_keys);
}

// --- Behavioural properties in the simulator --------------------------------------

class ShmPropertyTest : public ::testing::Test {
 protected:
  ShmPropertyTest() : harness_(MakeOptions()), platform_(&harness_.cluster()) {
    ShmPlatform::RegisterTypes(harness_.cluster());
    ShmPlatform::ApplyPaperPlacement(harness_.cluster());
  }
  static RuntimeOptions MakeOptions() {
    RuntimeOptions o;
    o.num_silos = 2;
    return o;
  }
  SimHarness harness_;
  ShmPlatform platform_;
};

/// Packet splitting across channel counts: each channel receives a
/// contiguous block, all points land exactly once.
class PacketSplit : public ::testing::TestWithParam<int> {};

TEST_P(PacketSplit, AllPointsLandExactlyOnce) {
  int channels = GetParam();
  RuntimeOptions o;
  o.num_silos = 2;
  SimHarness harness(o);
  ShmPlatform::RegisterTypes(harness.cluster());
  ShmPlatform::ApplyPaperPlacement(harness.cluster());
  ShmPlatform platform(&harness.cluster());
  ShmTopology t;
  t.sensors = 1;
  t.sensors_per_org = 1;
  t.channels_per_sensor = channels;
  t.virtual_every = 0;
  auto setup = platform.Setup(t);
  harness.RunFor(30 * kMicrosPerSecond);
  ASSERT_TRUE(setup.Get().value().ok());
  std::vector<DataPoint> packet;
  for (int i = 0; i < 21; ++i) {  // Deliberately not divisible by channels.
    packet.push_back(DataPoint{i * 1000, static_cast<double>(i)});
  }
  auto f = platform.Insert(t, 0, packet);
  harness.RunFor(10 * kMicrosPerSecond);
  ASSERT_TRUE(f.Get().value().ok());
  int64_t total = 0;
  for (int c = 0; c < channels; ++c) {
    auto points = harness.cluster()
                      .Ref<PhysicalChannelActor>(ShmPlatform::ChannelKey(0, c))
                      .Call(&PhysicalChannelActor::TotalPoints);
    harness.RunFor(kMicrosPerSecond);
    total += points.Get().value();
  }
  EXPECT_EQ(total, 21);
}

INSTANTIATE_TEST_SUITE_P(ChannelCounts, PacketSplit,
                         ::testing::Values(1, 2, 3, 4, 7));

TEST_F(ShmPropertyTest, WindowCapacityBoundsMemory) {
  ShmTopology t;
  t.sensors = 1;
  t.sensors_per_org = 1;
  t.virtual_every = 0;
  t.window_capacity = 50;
  auto setup = platform_.Setup(t);
  harness_.RunFor(30 * kMicrosPerSecond);
  ASSERT_TRUE(setup.Get().value().ok());
  // Insert 300 points in batches of 20 -> 150 per channel, window keeps 50.
  for (int batch = 0; batch < 15; ++batch) {
    std::vector<DataPoint> packet;
    for (int i = 0; i < 20; ++i) {
      packet.push_back(
          DataPoint{(batch * 20 + i) * 1000, static_cast<double>(i)});
    }
    platform_.Insert(t, 0, packet);
    harness_.RunFor(kMicrosPerSecond);
  }
  auto range = platform_.RawRange(t, 0, 0, 0, Micros{1} << 60);
  harness_.RunFor(2 * kMicrosPerSecond);
  EXPECT_EQ(range.Get().value().points.size(), 50u);
  auto total = harness_.cluster()
                   .Ref<PhysicalChannelActor>(ShmPlatform::ChannelKey(0, 0))
                   .Call(&PhysicalChannelActor::TotalPoints);
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(total.Get().value(), 150)
      << "total counter keeps counting past the window";
}

TEST_F(ShmPropertyTest, AggregatorMatchesReferenceStatistics) {
  ShmTopology t;
  t.sensors = 1;
  t.sensors_per_org = 1;
  t.virtual_every = 0;
  t.hour_window_us = 4 * kMicrosPerSecond;
  auto setup = platform_.Setup(t);
  harness_.RunFor(30 * kMicrosPerSecond);
  ASSERT_TRUE(setup.Get().value().ok());
  // Feed a known series into channel 0 only (channel 1 gets none).
  Rng rng(77);
  std::map<int64_t, std::vector<double>> reference;
  Micros base = harness_.Now();
  for (int batch = 0; batch < 12; ++batch) {
    std::vector<DataPoint> points;
    for (int i = 0; i < 10; ++i) {
      Micros ts = base + batch * kMicrosPerSecond + i * 100 * kMicrosPerMilli;
      double v = rng.Normal(10, 4);
      points.push_back(DataPoint{ts, v});
      reference[ts / t.hour_window_us].push_back(v);
    }
    // Use the channel directly so only c0 receives data.
    CallOptions opts;
    harness_.cluster()
        .Ref<PhysicalChannelActor>(ShmPlatform::ChannelKey(0, 0))
        .TellWith(opts, &PhysicalChannelActor::Append, points);
    harness_.RunFor(kMicrosPerSecond);
  }
  harness_.RunFor(5 * kMicrosPerSecond);
  auto aggs = platform_.HourAggregates(t, 0, 0, 0, base + (Micros{1} << 40));
  harness_.RunFor(2 * kMicrosPerSecond);
  auto windows = aggs.Get().value();
  ASSERT_EQ(windows.size(), reference.size());
  for (const AggregateView& w : windows) {
    const auto& ref = reference.at(w.window_start / t.hour_window_us);
    ASSERT_EQ(w.count, static_cast<int64_t>(ref.size()));
    double sum = 0, mn = ref[0], mx = ref[0];
    for (double v : ref) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    EXPECT_NEAR(w.mean, sum / ref.size(), 1e-9);
    EXPECT_DOUBLE_EQ(w.min, mn);
    EXPECT_DOUBLE_EQ(w.max, mx);
  }
}

TEST_F(ShmPropertyTest, DayAggregatorReceivesClosedHourWindows) {
  ShmTopology t;
  t.sensors = 1;
  t.sensors_per_org = 1;
  t.virtual_every = 0;
  t.hour_window_us = 2 * kMicrosPerSecond;
  t.day_window_us = 10 * kMicrosPerSecond;
  auto setup = platform_.Setup(t);
  harness_.RunFor(30 * kMicrosPerSecond);
  ASSERT_TRUE(setup.Get().value().ok());
  Micros base = harness_.Now();
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<DataPoint> points;
    for (int i = 0; i < 10; ++i) {
      points.push_back(DataPoint{base + batch * kMicrosPerSecond + i * 100000,
                                 1.0});
    }
    platform_.Insert(t, 0, points);
    harness_.RunFor(kMicrosPerSecond);
  }
  harness_.RunFor(5 * kMicrosPerSecond);
  auto day = harness_.cluster()
                 .Ref<AggregatorActor>(
                     ShmPlatform::DayAggKey(ShmPlatform::ChannelKey(0, 0)))
                 .Call(&AggregatorActor::Query, Micros{0}, Micros{1} << 60);
  harness_.RunFor(2 * kMicrosPerSecond);
  auto windows = day.Get().value();
  ASSERT_GE(windows.size(), 1u) << "closed hour windows roll up to day";
  for (const AggregateView& w : windows) {
    EXPECT_NEAR(w.mean, 1.0, 1e-9)
        << "constant series: every rolled-up mean is 1.0";
  }
}

/// Topology sweep: setup counts scale correctly with the sensor count.
class TopologySweep : public ::testing::TestWithParam<int> {};

TEST_P(TopologySweep, ActivationCountsMatchTopology) {
  int sensors = GetParam();
  RuntimeOptions o;
  o.num_silos = 2;
  SimHarness harness(o);
  ShmPlatform::RegisterTypes(harness.cluster());
  ShmPlatform::ApplyPaperPlacement(harness.cluster());
  ShmPlatform platform(&harness.cluster());
  ShmTopology t;
  t.sensors = sensors;
  auto setup = platform.Setup(t);
  harness.RunFor(60 * kMicrosPerSecond);
  ASSERT_TRUE(setup.Ready());
  ASSERT_TRUE(setup.Get().value().ok());
  // Orgs + users are created lazily by messages; sensors, channels,
  // virtual channels and aggregators are activated during setup.
  int orgs = ShmPlatform::NumOrgs(t);
  int virtuals = (sensors + t.virtual_every - 1) / t.virtual_every;
  int physical = sensors * t.channels_per_sensor;
  int aggregators = (physical + virtuals) * 3;  // hour/day/month.
  // Users are never messaged during setup, so they have no activations.
  size_t expected = static_cast<size_t>(orgs + sensors + physical +
                                        virtuals + aggregators);
  EXPECT_EQ(harness.cluster().TotalActivations(), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TopologySweep,
                         ::testing::Values(10, 50, 100, 250));

}  // namespace
}  // namespace shm
}  // namespace aodb
