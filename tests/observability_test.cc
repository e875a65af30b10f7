// Observability-plane tests: the black-box flight recorder (ring semantics,
// lifecycle events from a simulated cluster, retry-exhaustion attribution),
// the metrics time-series sampler, and the postmortem bundle — plus the
// property tests proving every JSON dump (metrics, traces, flight events,
// bundles) stays parseable when metric/actor names contain quotes,
// backslashes, and control characters.

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "actor/actor_ref.h"
#include "actor/flight_recorder.h"
#include "actor/retry_async.h"
#include "common/json.h"
#include "common/retry.h"
#include "common/telemetry.h"
#include "sim/sim_harness.h"
#include "wire_methods.h"

namespace aodb {
namespace {

class ObsCounter : public ActorBase {
 public:
  static constexpr char kTypeName[] = "test.ObsCounter";
  int64_t Add(int64_t d) {
    value_ += d;
    return value_;
  }
  int64_t Value() { return value_; }

 private:
  int64_t value_ = 0;
};

void RegisterObsCounterWire() {
  RegisterWire<ObsCounter>(&ObsCounter::Add, "Add", &ObsCounter::Value,
                           "Value");
}

// --- FlightRecorder mechanics (its ring: telemetry_test LossyRingTest) ----

TEST(FlightRecorder, DisabledRecordsNothing) {
  FlightRecorder rec(2, /*enabled=*/false, 64, nullptr);
  EXPECT_FALSE(rec.enabled());
  rec.Record(FlightEventType::kActivate, 0, "t/a", 1, 0, 10);
  EXPECT_TRUE(rec.Collect().empty());
  EXPECT_EQ(rec.DumpJson(), "{\"flight_events\":[]}");
}

TEST(FlightRecorder, MergesRingsInTimeOrderAndTruncatesNames) {
  FlightRecorder rec(2, /*enabled=*/true, 64, nullptr);
  const std::string long_name(100, 'x');
  rec.Record(FlightEventType::kActivate, 0, long_name, 0, 0, 50);
  rec.Record(FlightEventType::kDeactivate, 1, "t/k", 0, 0, 20);
  rec.Record(FlightEventType::kSlowTurn, kClientSiloId, "t/k", 0, 0, 50);
  std::vector<FlightRecord> events = rec.Collect();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by (at_us, seq): the t=20 event first, then the two t=50 events
  // in recording order (the global seq counter breaks the tie).
  EXPECT_EQ(events[0].type, FlightEventType::kDeactivate);
  EXPECT_EQ(events[1].type, FlightEventType::kActivate);
  EXPECT_EQ(events[2].type, FlightEventType::kSlowTurn);
  EXPECT_EQ(std::strlen(events[1].actor), FlightRecord::kActorBytes - 1);
}

// --- Lifecycle events from a live (simulated) cluster ------------------------

TEST(FlightRecorder, SimClusterRecordsActivateAndDeactivate) {
  RuntimeOptions options;
  options.num_silos = 2;
  options.workers_per_silo = 2;
  options.lifecycle.enable_idle_deactivation = true;
  options.lifecycle.idle_timeout_us = 20 * kMicrosPerMilli;
  options.lifecycle.scan_interval_us = 10 * kMicrosPerMilli;
  SimHarness harness(options);
  Cluster& cluster = harness.cluster();
  RegisterObsCounterWire();
  cluster.RegisterActorType<ObsCounter>();
  cluster.StartIdleScanner();

  auto ref = cluster.Ref<ObsCounter>("a");
  auto f = ref.Call(&ObsCounter::Add, int64_t{1});
  ASSERT_TRUE(RunUntilReady(harness, f, kMicrosPerSecond));
  harness.RunFor(200 * kMicrosPerMilli);  // Let the idle sweeper reap it.

  bool saw_activate = false;
  bool saw_deactivate = false;
  for (const FlightRecord& e : cluster.flight_recorder().Collect()) {
    if (std::string(e.actor) != "test.ObsCounter/a") continue;
    EXPECT_GE(e.silo, 0);
    if (e.type == FlightEventType::kActivate) saw_activate = true;
    if (e.type == FlightEventType::kDeactivate) saw_deactivate = true;
  }
  EXPECT_TRUE(saw_activate);
  EXPECT_TRUE(saw_deactivate);
  cluster.Stop();
}

TEST(FlightRecorder, RetryExhaustionAttributedToScope) {
  RuntimeOptions options;
  options.num_silos = 1;
  SimHarness harness(options);
  FlightRecorder& rec = harness.cluster().flight_recorder();

  RetryPolicy policy;
  policy.max_retries = 2;
  policy.initial_backoff_us = kMicrosPerMilli;
  Future<Status> f;
  {
    // Simulates a loop constructed inside an actor turn on silo 0.
    ScopedFlightScope scope(&rec, 0);
    f = RetryAsync<Status>(harness.client_executor(), policy, /*seed=*/7,
                           [] {
                             Promise<Status> p;
                             p.SetValue(Status::Unavailable("nope"));
                             return p.GetFuture();
                           });
  }
  ASSERT_TRUE(RunUntilReady(harness, f, kMicrosPerSecond));

  bool saw = false;
  for (const FlightRecord& e : rec.Collect()) {
    if (e.type != FlightEventType::kRetryExhausted) continue;
    saw = true;
    EXPECT_EQ(e.silo, 0);
    EXPECT_GE(e.detail, 1);  // Attempts consumed before giving up.
  }
  EXPECT_TRUE(saw);
  harness.cluster().Stop();
}

// --- Metrics timeline --------------------------------------------------------

TEST(MetricsTimeline, RecordsDeltasAndBoundsCapacity) {
  MetricsTimeline tl(2);
  MetricsSnapshot s1;
  s1.counters["c"] = 5;
  tl.Record(10, s1);
  MetricsSnapshot s2;
  s2.counters["c"] = 8;
  tl.Record(20, s2);
  EXPECT_EQ(tl.size(), 2u);

  std::string json = tl.ToJson();
  EXPECT_TRUE(ValidateJson(json));
  EXPECT_NE(json.find("\"t_us\":10"), std::string::npos);
  EXPECT_NE(json.find("\"c\":5"), std::string::npos);  // First: delta from 0.
  EXPECT_NE(json.find("\"c\":3"), std::string::npos);  // Second: 8 - 5.

  MetricsSnapshot s3;
  s3.counters["c"] = 9;
  tl.Record(30, s3);
  EXPECT_EQ(tl.size(), 2u);  // Oldest entry fell off.
  EXPECT_EQ(tl.ToJson().find("\"t_us\":10"), std::string::npos);

  tl.Clear();
  EXPECT_EQ(tl.size(), 0u);
  EXPECT_EQ(tl.ToJson(), "[]");
}

TEST(MetricsTimeline, BackgroundSamplerRecordsOnCadence) {
  RuntimeOptions options;
  options.num_silos = 1;
  options.observability.metrics_sample_interval_us = 10 * kMicrosPerMilli;
  SimHarness harness(options);
  Cluster& cluster = harness.cluster();
  cluster.StartMetricsSampler();
  harness.RunFor(105 * kMicrosPerMilli);
  EXPECT_GE(cluster.metrics_timeline().size(), 5u);
  EXPECT_TRUE(ValidateJson(cluster.metrics_timeline().ToJson()));
  cluster.Stop();
}

// --- JSON validity under hostile names (the property tests) ------------------

TEST(ObservabilityJson, HostileNamesSurviveEveryDump) {
  const std::string evil = "ev\"il\\na\nme\twith\x01ctrl";
  RuntimeOptions options;
  options.num_silos = 1;
  options.trace.sample_every = 1;
  SimHarness harness(options);
  Cluster& cluster = harness.cluster();

  cluster.metrics().GetCounter(evil)->Add(3);
  cluster.metrics().GetGauge(evil + ".g")->Set(4);
  cluster.metrics().GetHistogram(evil + ".h")->Record(5);

  SpanRecord span;
  span.trace_id = 1;
  span.span_id = 1;
  span.name = evil;
  span.actor = evil;
  span.kind = "turn";
  span.silo = 0;
  span.start_us = 1;
  span.end_us = 2;
  cluster.tracer().Record(span);

  cluster.flight_recorder().Record(FlightEventType::kSlowTurn, 0, evil, 1, 2,
                                   3);
  cluster.metrics_timeline().Record(10, cluster.SnapshotMetrics());

  EXPECT_TRUE(ValidateJson(cluster.DumpMetricsJson()));
  EXPECT_TRUE(ValidateJson(cluster.DumpTraceJson()));
  EXPECT_TRUE(ValidateJson(cluster.DumpFlightJson()));
  std::string bundle =
      cluster.BuildPostmortemJson("reason \"quoted\" \\ and \x02 ctrl");
  EXPECT_TRUE(ValidateJson(bundle));

  // Round-trip: the reader decodes the escaped actor name back exactly.
  const std::string flight_json = cluster.DumpFlightJson();
  JsonReader r(flight_json);
  bool found = false;
  bool ok = ReadObject(&r, [&](const std::string& key) {
    if (key != "flight_events") return r.SkipValue();
    return ReadArray(&r, [&] {
      return ReadObject(&r, [&](const std::string& k) {
        if (k == "actor") {
          std::string a;
          if (!r.ReadString(&a)) return false;
          if (a == evil) found = true;
          return true;
        }
        return r.SkipValue();
      });
    });
  });
  EXPECT_TRUE(ok);
  EXPECT_TRUE(found);
  cluster.Stop();
}

TEST(ObservabilityJson, ReaderDecodesStandardEscapes) {
  const std::string text = "\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"";
  JsonReader r(text);
  std::string s;
  ASSERT_TRUE(r.ReadString(&s));
  EXPECT_EQ(s, "a\"b\\c\n\tA\xc3\xa9");
  EXPECT_TRUE(r.AtEnd());

  EXPECT_TRUE(
      ValidateJson(" {\"a\":[1,2.5,true,false,null,\"x\\u0007\"]} "));
  EXPECT_FALSE(ValidateJson("{\"a\":1,}"));
  EXPECT_FALSE(ValidateJson("{\"a\":1} trailing"));
  EXPECT_FALSE(ValidateJson("{\"a\":\"unterminated}"));
  EXPECT_FALSE(ValidateJson("{\"a\":\"bad \\q escape\"}"));
}

// --- Postmortem bundles ------------------------------------------------------

TEST(Postmortem, BundleContainsLifecycleAndSections) {
  RuntimeOptions options;
  options.num_silos = 2;
  options.workers_per_silo = 2;
  SimHarness harness(options);
  Cluster& cluster = harness.cluster();
  RegisterObsCounterWire();
  cluster.RegisterActorType<ObsCounter>();

  auto f = cluster.Ref<ObsCounter>("pm").Call(&ObsCounter::Add, int64_t{1});
  ASSERT_TRUE(RunUntilReady(harness, f, kMicrosPerSecond));

  std::string bundle = cluster.BuildPostmortemJson("unit-test reason");
  EXPECT_TRUE(ValidateJson(bundle));
  EXPECT_NE(bundle.find("\"schema\":\"aodb.postmortem.v1\""),
            std::string::npos);
  EXPECT_NE(bundle.find("\"reason\":\"unit-test reason\""),
            std::string::npos);
  EXPECT_NE(bundle.find("\"type\":\"activate\""), std::string::npos);
  EXPECT_NE(bundle.find("test.ObsCounter/pm"), std::string::npos);
  for (const char* section :
       {"\"membership\"", "\"hot_actors\"", "\"flight_events\"",
        "\"metrics_timeline\"", "\"metrics\"", "\"traces\""}) {
    EXPECT_NE(bundle.find(section), std::string::npos) << section;
  }
  cluster.Stop();
}

TEST(Postmortem, DumpWritesParseableFileAndFailsOnBadPath) {
  RuntimeOptions options;
  options.num_silos = 1;
  SimHarness harness(options);
  Cluster& cluster = harness.cluster();

  const std::string path =
      ::testing::TempDir() + "/aodb_postmortem_test.json";
  ASSERT_TRUE(cluster.DumpPostmortem(path, "unit test").ok());
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(ValidateJson(buf.str()));

  EXPECT_FALSE(
      cluster.DumpPostmortem("/nonexistent-dir-xyz/p.json", "r").ok());
  cluster.Stop();
}

TEST(Postmortem, StopWithLeakedPromiseWritesBundle) {
  const std::string path =
      ::testing::TempDir() + "/aodb_postmortem_leak.json";
  std::remove(path.c_str());
  {
    RuntimeOptions options;
    options.num_silos = 1;
    options.observability.postmortem_path = path;
    SimHarness harness(options);
    {
      // A promise with a continuation attached that is destroyed without
      // ever completing — invariant 4's definition of a leak.
      Promise<int> p;
      p.GetFuture().OnReady([](Result<int>&&) {});
    }
    harness.cluster().Stop();
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "Stop() did not write the postmortem bundle";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(ValidateJson(buf.str()));
  EXPECT_NE(buf.str().find("leaked promise"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aodb
