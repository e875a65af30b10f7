// End-to-end telemetry tests: the unified metrics registry (snapshot /
// delta / merge semantics, the thread-safe ConcurrentHistogram), distributed
// tracing (same-silo closure lane, cross-silo wire round-trip, propagation
// through retries and workflows, span parentage), per-actor-type turn
// profiling, and the sampling draw.

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "actor/actor_ref.h"
#include "actor/flight_recorder.h"
#include "actor/lossy_ring.h"
#include "actor/retry_async.h"
#include "actor/runtime.h"
#include "actor/trace.h"
#include "actor/wire_format.h"
#include "aodb/txn.h"
#include "aodb/wire.h"
#include "aodb/workflow.h"
#include "common/telemetry.h"
#include "shm/platform.h"
#include "sim/sim_harness.h"
#include "wire_methods.h"

namespace aodb {
namespace {

// --- Registry ----------------------------------------------------------------

TEST(MetricsRegistryTest, GetIsRegisterOnceAndPointerStable) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("a.count");
  EXPECT_EQ(c, reg.GetCounter("a.count"));
  c->Add(3);
  c->Add();
  Gauge* g = reg.GetGauge("a.level");
  g->Set(7);
  reg.GetHistogram("a.lat")->Record(100);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("a.count"), 4);
  EXPECT_EQ(snap.gauges.at("a.level"), 7);
  EXPECT_EQ(snap.histograms.at("a.lat").count(), 1);
}

TEST(MetricsRegistryTest, DeltaSubtractsCountersAndKeepsLaterGauges) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("events");
  Gauge* g = reg.GetGauge("depth");
  ConcurrentHistogram* h = reg.GetHistogram("lat");
  c->Add(10);
  g->Set(5);
  h->Record(50);
  MetricsSnapshot before = reg.Snapshot();
  c->Add(7);
  g->Set(2);
  h->Record(60);
  h->Record(70);
  MetricsSnapshot after = reg.Snapshot();

  MetricsSnapshot delta = after.Delta(before);
  EXPECT_EQ(delta.counters.at("events"), 7);
  EXPECT_EQ(delta.gauges.at("depth"), 2) << "gauges are levels, not rates";
  EXPECT_EQ(delta.histograms.at("lat").count(), 2);
}

TEST(MetricsRegistryTest, MergeAddsCountersAndMergesHistograms) {
  MetricsRegistry a, b;
  a.GetCounter("n")->Add(2);
  b.GetCounter("n")->Add(3);
  b.GetCounter("only_b")->Add(1);
  a.GetGauge("g")->Set(10);
  b.GetGauge("g")->Set(5);
  a.GetHistogram("h")->Record(100);
  b.GetHistogram("h")->Record(200);

  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.counters.at("n"), 5);
  EXPECT_EQ(merged.counters.at("only_b"), 1);
  EXPECT_EQ(merged.gauges.at("g"), 15) << "sharded gauges sum";
  EXPECT_EQ(merged.histograms.at("h").count(), 2);
}

TEST(MetricsRegistryTest, ExportsRenderEverySeries) {
  MetricsRegistry reg;
  reg.GetCounter("wire.requests")->Add(42);
  reg.GetGauge("cluster.activations")->Set(3);
  reg.GetHistogram("turn.exec_us.Sensor")->Record(120);
  MetricsSnapshot snap = reg.Snapshot();

  std::string table = snap.ToTable();
  EXPECT_NE(table.find("wire.requests"), std::string::npos);
  EXPECT_NE(table.find("42"), std::string::npos);
  EXPECT_NE(table.find("turn.exec_us.Sensor"), std::string::npos);

  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"wire.requests\":42"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// --- ConcurrentHistogram -----------------------------------------------------

TEST(ConcurrentHistogramTest, SnapshotMatchesPlainHistogramBuckets) {
  ConcurrentHistogram ch;
  Histogram plain;
  for (int64_t v : {0, 1, 63, 64, 100, 1000, 123456, 99999999}) {
    ch.Record(v);
    plain.Record(v);
  }
  Histogram snap = ch.Snapshot();
  EXPECT_EQ(snap.count(), plain.count());
  EXPECT_EQ(snap.min(), plain.min()) << "extrema are tracked exactly";
  EXPECT_EQ(snap.max(), plain.max());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(snap.Percentile(q), plain.Percentile(q))
        << "same bucket layout must give identical percentiles at q=" << q;
  }
}

TEST(ConcurrentHistogramTest, LosesNothingUnderConcurrentWriters) {
  // The satellite fix: plain Histogram::Record is racy; the registry's
  // histogram must count every observation from many threads.
  ConcurrentHistogram ch;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ch, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ch.Record(t * 1000 + i % 997);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ch.count(), int64_t{kThreads} * kPerThread);
  Histogram snap = ch.Snapshot();
  EXPECT_EQ(snap.count(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(snap.min(), 0);
}

// --- Wire round-trip ---------------------------------------------------------

TEST(TraceWireTest, TraceContextSurvivesFrameRoundTrip) {
  WireRequest req;
  req.target = ActorId{"shm.Sensor", "s42"};
  req.method_id = 0x1234;
  req.trace_id = 77;
  req.parent_span_id = 9001;
  req.trace_sampled = true;
  req.args = "payload";
  std::string frame = WireEncodeRequest(req);

  WireRequest out;
  ASSERT_TRUE(WireDecodeRequest(frame, &out).ok());
  EXPECT_EQ(out.trace_id, 77u);
  EXPECT_EQ(out.parent_span_id, 9001u);
  EXPECT_TRUE(out.trace_sampled);

  // Untraced requests pay three zero varint bytes and decode back to zero.
  WireRequest bare;
  bare.target = req.target;
  bare.method_id = 1;
  WireRequest bare_out;
  ASSERT_TRUE(WireDecodeRequest(WireEncodeRequest(bare), &bare_out).ok());
  EXPECT_EQ(bare_out.trace_id, 0u);
  EXPECT_EQ(bare_out.parent_span_id, 0u);
  EXPECT_FALSE(bare_out.trace_sampled);
}

// --- Actors used by the propagation tests ------------------------------------

class PingActor : public ActorBase {
 public:
  static constexpr char kTypeName[] = "tel.Ping";
  int64_t Echo(int64_t v) { return v; }
};

class HopActor : public ActorBase {
 public:
  static constexpr char kTypeName[] = "tel.Hop";
  Future<int64_t> Forward(std::string target, int64_t v) {
    return ctx().Ref<PingActor>(target).Call(&PingActor::Echo, v);
  }
};

void RegisterPingWire() {
  RegisterWire<PingActor>(&PingActor::Echo, "Echo");
  RegisterWire<HopActor>(&HopActor::Forward, "Forward");
}

RuntimeOptions TracedOptions(int silos, int sample_every = 1) {
  RuntimeOptions o;
  o.num_silos = silos;
  o.workers_per_silo = 2;
  o.trace.sample_every = sample_every;
  return o;
}

std::map<uint64_t, SpanRecord> ById(const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, SpanRecord> m;
  for (const SpanRecord& s : spans) m[s.span_id] = s;
  return m;
}

// --- Same-silo propagation ---------------------------------------------------

TEST(TracePropagationTest, SameSiloCallChainIsParentLinked) {
  SimHarness harness(TracedOptions(1));
  RegisterPingWire();
  harness.cluster().RegisterActorType<PingActor>();
  harness.cluster().RegisterActorType<HopActor>();

  auto f = harness.cluster().Ref<HopActor>("h").Call(
      &HopActor::Forward, std::string("p"), int64_t{5});
  harness.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(f.Ready());
  ASSERT_TRUE(f.Get().ok());

  std::vector<SpanRecord> spans = harness.cluster().tracer().Collect();
  ASSERT_FALSE(spans.empty());
  uint64_t trace_id = spans[0].trace_id;
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.trace_id, trace_id) << "one call chain, one trace";
  }

  // client root -> Hop turn -> Ping turn.
  auto by_id = ById(spans);
  const SpanRecord* client = nullptr;
  const SpanRecord* hop = nullptr;
  const SpanRecord* ping = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.kind == "client") client = &by_id[s.span_id];
    if (s.kind == "turn" && s.actor.find("tel.Hop") == 0) {
      hop = &by_id[s.span_id];
    }
    if (s.kind == "turn" && s.actor.find("tel.Ping") == 0) {
      ping = &by_id[s.span_id];
    }
  }
  ASSERT_NE(client, nullptr);
  ASSERT_NE(hop, nullptr);
  ASSERT_NE(ping, nullptr);
  EXPECT_EQ(client->parent_span_id, 0u) << "the external call is the root";
  EXPECT_EQ(hop->parent_span_id, client->span_id);
  EXPECT_EQ(ping->parent_span_id, hop->span_id)
      << "the nested Call inherits the Hop turn's span";
  EXPECT_GE(hop->end_us, hop->start_us);
}

TEST(TracePropagationTest, DisabledTracingRecordsNothing) {
  RuntimeOptions o;
  o.num_silos = 1;  // trace.sample_every defaults to 0 (off).
  SimHarness harness(o);
  RegisterPingWire();
  harness.cluster().RegisterActorType<PingActor>();
  auto f = harness.cluster().Ref<PingActor>("p").Call(&PingActor::Echo,
                                                      int64_t{1});
  harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(f.Ready());
  EXPECT_TRUE(harness.cluster().tracer().Collect().empty());
  EXPECT_FALSE(harness.cluster().tracer().enabled());
}

TEST(TracePropagationTest, SamplingDrawIsOneInN) {
  SimHarness harness(TracedOptions(1, /*sample_every=*/4));
  RegisterPingWire();
  harness.cluster().RegisterActorType<PingActor>();
  for (int i = 0; i < 8; ++i) {
    auto f = harness.cluster().Ref<PingActor>("p").Call(&PingActor::Echo,
                                                        int64_t{i});
    harness.RunFor(kMicrosPerSecond);
    ASSERT_TRUE(f.Ready());
  }
  // The draw counter is deterministic: draws 0..7 sample draws 0 and 4.
  MetricsSnapshot snap = harness.cluster().SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("trace.traces_started"), 2);
  std::set<uint64_t> trace_ids;
  for (const SpanRecord& s : harness.cluster().tracer().Collect()) {
    trace_ids.insert(s.trace_id);
  }
  EXPECT_EQ(trace_ids.size(), 2u);
}

// --- Cross-silo acceptance: SHM ingest ---------------------------------------

TEST(TraceCrossSiloTest, ShmIngestTraceLinksClientSensorAndAggregator) {
  SimHarness harness(TracedOptions(3));
  shm::ShmPlatform::RegisterTypes(harness.cluster());
  shm::ShmPlatform::ApplyPaperPlacement(harness.cluster());
  shm::ShmPlatform platform(&harness.cluster());

  shm::ShmTopology t;
  t.sensors = 4;
  t.sensors_per_org = 4;
  t.virtual_every = 2;
  t.hour_window_us = 2 * kMicrosPerSecond;
  auto setup = platform.Setup(t);
  harness.RunFor(30 * kMicrosPerSecond);
  ASSERT_TRUE(setup.Get().ok()) << setup.Get().status().ToString();
  // Drop the setup traffic so only the ingest trace below remains
  // interesting; rings keep everything, so just remember the current ids.
  std::set<uint64_t> old_traces;
  for (const SpanRecord& s : harness.cluster().tracer().Collect()) {
    old_traces.insert(s.trace_id);
  }

  std::vector<shm::DataPoint> pts;
  for (int i = 0; i < 8; ++i) {
    pts.push_back(shm::DataPoint{harness.Now() + i * kMicrosPerMilli,
                                 20.0 + i});
  }
  auto ins = platform.Insert(t, /*sensor=*/1, pts);
  harness.RunFor(10 * kMicrosPerSecond);
  ASSERT_TRUE(ins.Ready());
  ASSERT_TRUE(ins.Get().ok()) << ins.Get().status().ToString();

  // Find the ingest trace: the one with a shm.Sensor turn we didn't see
  // during setup.
  std::vector<SpanRecord> all = harness.cluster().tracer().Collect();
  uint64_t ingest_trace = 0;
  for (const SpanRecord& s : all) {
    if (old_traces.count(s.trace_id)) continue;
    if (s.kind == "turn" && s.actor.find("shm.Sensor") == 0) {
      ingest_trace = s.trace_id;
      break;
    }
  }
  ASSERT_NE(ingest_trace, 0u) << "ingest must have started a fresh trace";

  std::vector<SpanRecord> trace =
      harness.cluster().tracer().CollectTrace(ingest_trace);
  auto by_id = ById(trace);

  const SpanRecord* client = nullptr;
  const SpanRecord* sensor = nullptr;
  bool saw_aggregator = false;
  for (const SpanRecord& s : trace) {
    if (s.kind == "client") client = &by_id[s.span_id];
    if (s.kind == "turn" && s.actor.find("shm.Sensor") == 0) {
      sensor = &by_id[s.span_id];
    }
    if (s.kind == "turn" && s.actor.find("shm.Aggregator") == 0) {
      saw_aggregator = true;
    }
  }
  ASSERT_NE(client, nullptr) << "the external Insert call roots the trace";
  ASSERT_NE(sensor, nullptr);
  EXPECT_TRUE(saw_aggregator)
      << "ingest must fan through the channel into the aggregator";
  EXPECT_EQ(client->parent_span_id, 0u);
  EXPECT_EQ(sensor->parent_span_id, client->span_id)
      << "the sensor turn is caused by the client call";

  // Every span's parent must exist in the same trace (or be the root).
  for (const SpanRecord& s : trace) {
    if (s.parent_span_id == 0) continue;
    EXPECT_TRUE(by_id.count(s.parent_span_id))
        << "orphan span " << s.span_id << " (" << s.name << ")";
  }

  // Turn spans on remote silos prove the context crossed the wire.
  std::set<SiloId> turn_silos;
  for (const SpanRecord& s : trace) {
    if (s.kind == "turn") turn_silos.insert(s.silo);
  }
  EXPECT_GE(turn_silos.size(), 1u);

  std::string dump = harness.cluster().DumpTraceJson();
  EXPECT_NE(dump.find("\"traces\""), std::string::npos);
  EXPECT_NE(dump.find("\"shm.Sensor"), std::string::npos);
}

// --- Propagation through retry ----------------------------------------------

class VolatileCounter : public ActorBase {
 public:
  static constexpr char kTypeName[] = "tel.Volatile";
  int64_t Add(int64_t d) { return value_ += d; }
  int64_t Value() { return value_; }

 private:
  int64_t value_ = 0;
};

TEST(TracePropagationTest, RetryAttemptsStayOnTheOriginalTrace) {
  SimHarness harness(TracedOptions(1));
  RegisterWire<VolatileCounter>(&VolatileCounter::Add, "Add",
                                &VolatileCounter::Value, "Value");
  harness.cluster().RegisterActorType<VolatileCounter>();
  auto c = harness.cluster().Ref<VolatileCounter>("v");
  auto warm = c.Call(&VolatileCounter::Add, int64_t{1});
  harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(warm.Get().ok());
  uint64_t warm_trace = 0;
  for (const SpanRecord& s : harness.cluster().tracer().Collect()) {
    warm_trace = std::max(warm_trace, s.trace_id);
  }

  harness.cluster().KillSilo(0);
  harness.client_executor()->PostAfter(2 * kMicrosPerSecond, [&harness] {
    harness.cluster().RestartSilo(0);
  });
  RetryPolicy policy;
  policy.max_retries = 10;
  policy.initial_backoff_us = 100 * kMicrosPerMilli;

  // Give the whole retry loop one synthetic traced scope, the way a traced
  // workflow step would invoke it.
  Tracer& tracer = harness.cluster().tracer();
  TraceContext ctx = tracer.MaybeStartTrace();
  ASSERT_TRUE(ctx.valid());
  ctx.span_id = tracer.NewSpanId();
  Future<int64_t> healed = [&] {
    ScopedTraceContext scope(ctx);
    return RetryAsync<int64_t>(
        harness.client_executor(), policy, /*seed=*/3,
        [&c] { return c.Call(&VolatileCounter::Value); }, IsTransient);
  }();
  harness.RunFor(30 * kMicrosPerSecond);
  ASSERT_TRUE(healed.Ready());
  ASSERT_TRUE(healed.Get().ok()) << healed.Get().status().ToString();

  // The successful attempt ran after the restart, from a timer thread with
  // no ambient context — only RetryLoop's re-install can have kept the id.
  bool found_turn_on_ctx_trace = false;
  for (const SpanRecord& s : harness.cluster().tracer().Collect()) {
    if (s.trace_id == ctx.trace_id && s.kind == "turn" &&
        s.parent_span_id == ctx.span_id) {
      found_turn_on_ctx_trace = true;
    }
  }
  EXPECT_TRUE(found_turn_on_ctx_trace)
      << "retried attempts must carry the originating trace context";
  EXPECT_NE(ctx.trace_id, warm_trace);
}

// --- Workflow trace ----------------------------------------------------------

class LedgerActor : public TransactionalActor {
 public:
  static constexpr char kTypeName[] = "tel.Ledger";
  int64_t Balance() { return balance_; }

 protected:
  Status ValidateOp(const std::string& op, const std::string&) override {
    if (op == "credit" || op == "debit") return Status::OK();
    return Status::InvalidArgument("unknown op " + op);
  }
  void ApplyOp(const std::string& op, const std::string& arg) override {
    int64_t amount = std::atoll(arg.c_str());
    balance_ += (op == "credit") ? amount : -amount;
  }
  void UnstageOp(const std::string&, const std::string&) override {}

 private:
  int64_t balance_ = 0;
};

TEST(TraceWorkflowTest, TwoStepWorkflowIsOneTraceUnderTheWorkflowSpan) {
  SimHarness harness(TracedOptions(2));
  ASSERT_TRUE(
      RegisterTransactionalWireMethods(LedgerActor::kTypeName).ok());
  RegisterWire<LedgerActor>(&LedgerActor::Balance, "Balance");
  harness.cluster().RegisterActorType<LedgerActor>();
  WorkflowEngine engine(&harness.cluster());
  auto f = engine.Run({
      WorkflowStep{LedgerActor::kTypeName, "w-a", "credit", "30", "debit",
                   "30"},
      WorkflowStep{LedgerActor::kTypeName, "w-b", "credit", "30", "debit",
                   "30"},
  });
  harness.RunFor(30 * kMicrosPerSecond);
  ASSERT_TRUE(f.Ready());
  ASSERT_TRUE(f.Get().ok());
  ASSERT_TRUE(f.Get().value().ok()) << f.Get().value().ToString();

  const SpanRecord* wf = nullptr;
  std::vector<SpanRecord> all = harness.cluster().tracer().Collect();
  for (const SpanRecord& s : all) {
    if (s.kind == "workflow") wf = &s;
  }
  ASSERT_NE(wf, nullptr) << "the workflow records its own span";

  int turns_on_wf_trace = 0;
  std::set<std::string> actors;
  for (const SpanRecord& s : all) {
    if (s.trace_id == wf->trace_id && s.kind == "turn") {
      ++turns_on_wf_trace;
      actors.insert(s.actor);
    }
  }
  EXPECT_GE(turns_on_wf_trace, 2)
      << "both steps' turns must land on the workflow's trace";
  bool saw_a = false, saw_b = false;
  for (const std::string& a : actors) {
    if (a.find("w-a") != std::string::npos) saw_a = true;
    if (a.find("w-b") != std::string::npos) saw_b = true;
  }
  EXPECT_TRUE(saw_a && saw_b) << "steps touch both target actors";
  EXPECT_EQ(wf->parent_span_id, 0u)
      << "an externally-started workflow roots its trace";

  MetricsSnapshot snap = harness.cluster().SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("workflow.steps_executed"), 2);
}

// --- Cluster metrics & turn profiling ----------------------------------------

TEST(ClusterMetricsTest, RuntimeCountersLandInTheRegistry) {
  SimHarness harness(TracedOptions(2));
  RegisterPingWire();
  harness.cluster().RegisterActorType<PingActor>();
  for (int i = 0; i < 6; ++i) {
    auto f = harness.cluster()
                 .Ref<PingActor>("p" + std::to_string(i))
                 .Call(&PingActor::Echo, int64_t{i});
    harness.RunFor(kMicrosPerSecond);
    ASSERT_TRUE(f.Get().ok());
  }
  MetricsSnapshot snap = harness.cluster().SnapshotMetrics();
  EXPECT_GT(snap.counters.at("trace.spans_recorded"), 0);
  EXPECT_GT(snap.gauges.at("cluster.activations"), 0);
  EXPECT_GT(snap.gauges.at("cluster.messages_processed"), 0);
  // Some lane carried every call: same-silo closures or wire frames.
  int64_t carried = snap.counters.at("wire.local_closure_sends") +
                    snap.counters.at("wire.requests");
  EXPECT_GE(carried, 6);

  // Turn profiling: per-type histograms exist and saw every turn.
  ASSERT_TRUE(snap.histograms.count("turn.exec_us.tel.Ping"));
  ASSERT_TRUE(snap.histograms.count("turn.queue_wait_us.tel.Ping"));
  EXPECT_GE(snap.histograms.at("turn.exec_us.tel.Ping").count(), 6);
  EXPECT_EQ(snap.histograms.at("turn.exec_us.tel.Ping").count(),
            snap.histograms.at("turn.queue_wait_us.tel.Ping").count());

  EXPECT_NE(harness.cluster().DumpMetrics().find("wire."),
            std::string::npos);
  EXPECT_NE(harness.cluster().DumpMetricsJson().find("\"counters\""),
            std::string::npos);
}

// --- LossyRing ---------------------------------------------------------------

/// Stamps a ring record with a sequence number and reads it back, so one set
/// of ring tests covers both record types the runtime buffers.
template <typename T>
struct RingRecord;

template <>
struct RingRecord<SpanRecord> {
  static SpanRecord Make(uint64_t seq) {
    SpanRecord r;
    r.trace_id = 1;
    r.span_id = seq;
    return r;
  }
  static uint64_t Seq(const SpanRecord& r) { return r.span_id; }
};

template <>
struct RingRecord<FlightRecord> {
  static FlightRecord Make(uint64_t seq) {
    FlightRecord r;
    r.at_us = static_cast<Micros>(seq);
    r.seq = seq;
    return r;
  }
  static uint64_t Seq(const FlightRecord& r) { return r.seq; }
};

template <typename T>
class LossyRingTest : public ::testing::Test {};
using RingRecordTypes = ::testing::Types<SpanRecord, FlightRecord>;
TYPED_TEST_SUITE(LossyRingTest, RingRecordTypes);

TYPED_TEST(LossyRingTest, KeepsNewestOnWrap) {
  using Rec = RingRecord<TypeParam>;
  for (uint64_t capacity : {uint64_t{8}, uint64_t{16}}) {
    LossyRing<TypeParam> ring(capacity);
    const uint64_t pushes = capacity * 5 / 2;
    for (uint64_t i = 1; i <= pushes; ++i) {
      ASSERT_TRUE(ring.Push(Rec::Make(i)));
    }
    std::vector<TypeParam> out;
    ring.Collect(&out);
    ASSERT_EQ(out.size(), capacity);
    for (const TypeParam& r : out) {
      EXPECT_GT(Rec::Seq(r), pushes - capacity)
          << "wrap-around keeps only the newest records";
    }
  }
}

TYPED_TEST(LossyRingTest, SurvivesConcurrentPush) {
  using Rec = RingRecord<TypeParam>;
  LossyRing<TypeParam> hot(64);
  std::atomic<int64_t> pushed{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 8; ++t) {
    threads.emplace_back([&hot, &pushed, t] {
      for (uint64_t i = 0; i < 5000; ++i) {
        if (hot.Push(Rec::Make(t * 10000 + i))) pushed.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<TypeParam> survivors;
  hot.Collect(&survivors);
  EXPECT_LE(survivors.size(), 64u);
  EXPECT_GT(pushed.load(), 0);
}

}  // namespace
}  // namespace aodb
