// Flash crowd: overload management under heavy key skew.
//
// 400 persistent counter actors on a 4-silo cluster (1 worker each, 400us
// per write => 10k writes/s cluster capacity), driven at 6,000 writes/s.
// Three phases, same seed:
//
//   (a) uniform, managed    — every actor gets an equal share; overload
//                             management on. The latency baseline.
//   (b) skewed, unmanaged   — 1% of the actors (4, deliberately co-located
//                             on one silo) receive 90% of the traffic with
//                             no mailbox bounds, shedding, or migration.
//                             The hot silo's queue grows without bound.
//   (c) skewed, managed     — same skew with bounded mailboxes (callers see
//                             Overloaded and retry with backoff), the silo
//                             load shedder, and the hot-actor migration
//                             controller enabled.
//
// The acceptance shape: phase (c) p99 lands within 2x of phase (a) p99 —
// the controller spreads the hot actors across silos and backpressure
// absorbs the transient — while phase (b) p99 collapses into queueing
// delay. Every phase also proves write conservation: the sum of final
// counter values must equal warmup + acked writes exactly, so migration
// (deactivate -> directory move -> reactivate from persisted state) loses
// no acked write and backpressure retries double-apply none.
//
// Latency is recorded for requests fired after a warm-in of 1/5 of the run,
// so phase (c)'s percentiles describe the managed steady state, not the
// pre-migration transient it exists to fix.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "actor/actor_ref.h"
#include "actor/retry_async.h"
#include "shm_bench_util.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "sim/sim_harness.h"
#include "storage/mem_kv.h"
#include "storage/persistent_actor.h"

namespace aodb::bench {
namespace {

constexpr int kActors = 400;
constexpr int kHotActors = 4;  // 1% of the population...
constexpr double kHotShare = 0.9;  // ...receiving 90% of the traffic.
// 60% of cluster capacity. The skew then makes the hot silo's inflow
// (90% of this + its uniform share) more than 2x its capacity, so the
// controller must spread ALL the hot actors before the silo is healthy —
// after which every silo runs at the same 60% the uniform phase does.
constexpr int kWritesPerSec = 6000;
constexpr Micros kWriteCostUs = 400;

struct FcState {
  int64_t value = 0;
  void Encode(BufWriter* w) const { w->PutSigned(value); }
  Status Decode(BufReader* r) { return r->GetSigned(&value); }
};

class FcCounter : public PersistentActor<FcState> {
 public:
  static constexpr char kTypeName[] = "bench.FcCounter";

  // Persist on deactivation only: migration's deactivate-side flush is then
  // the ONLY thing standing between an acked write and loss, which is
  // exactly the contract this bench checks.
  FcCounter()
      : PersistentActor<FcState>(PersistenceOptions{
            PersistPolicy::kOnDeactivate, 100, 10 * kMicrosPerSecond,
            "default", RetryPolicy{}}) {}

  int64_t Add(int64_t d) {
    state().value += d;
    MarkDirty();
    return state().value;
  }
  int64_t Value() { return state().value; }
};

struct PhaseResult {
  int64_t offered = 0;
  int64_t acked = 0;
  int64_t failed = 0;
  int64_t retries = 0;
  Histogram latency;
  int64_t migrations = 0;
  int64_t mailbox_rejects = 0;
  int64_t shed = 0;
  bool conserved = false;
  int64_t counter_sum = 0;
  int64_t expected_sum = 0;
  MetricsSnapshot metrics;
  bool ok = false;
};

int64_t CounterOr0(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

struct Agg {
  int64_t acked = 0;
  int64_t failed = 0;
  int64_t retries = 0;
  int64_t outstanding = 0;
  Micros measure_from = 0;
  Histogram latency;
};

PhaseResult RunPhase(bool skewed, bool managed, Micros duration) {
  PhaseResult out;
  RuntimeOptions options;
  options.num_silos = 4;
  options.workers_per_silo = 1;
  options.seed = 42;
  if (managed) {
    options.overload.max_mailbox_depth = 64;
    options.overload.shed_watermark = 200;  // Hard watermark defaults to 2x.
    options.overload.enable_hot_migration = true;
    // A fast scan lets the controller finish the full spread (3 moves, one
    // per scan) within ~300ms of onset, so the backlog is drained well
    // before the warm-in window ends and the measured tail reflects the
    // post-adaptation steady state.
    options.overload.scan_interval_us = 100 * kMicrosPerMilli;
    options.overload.hot_actor_min_depth = 8;
    options.overload.min_load_delta = 32;
  }
  SimHarness harness(options);
  Cluster& cluster = harness.cluster();

  static const Status registered = [] {
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        FcCounter::kTypeName, &FcCounter::Add, "FcCounter.Add"));
    return MethodRegistry::Global().Register(
        FcCounter::kTypeName, &FcCounter::Value, "FcCounter.Value",
        /*idempotent=*/true);
  }();
  if (!registered.ok()) return out;
  cluster.RegisterActorType<FcCounter>();
  MemKvStore kv;
  cluster.RegisterStateStorage("default",
                               std::make_shared<KvStateStorage>(&kv));
  if (managed) cluster.overload_controller().Start();

  // Warm up every actor sequentially so random placement is identical in
  // every phase (same seed, same activation order).
  std::vector<std::string> keys;
  keys.reserve(kActors);
  for (int i = 0; i < kActors; ++i) {
    keys.push_back("c" + std::to_string(i));
    auto f = cluster.Ref<FcCounter>(keys.back()).Call(&FcCounter::Add,
                                                      int64_t{1});
    if (!RunUntilReady(harness, f, 10 * kMicrosPerSecond) || !f.Get().ok()) {
      return out;
    }
  }

  // The hot set: the first kHotActors actors that share actor c0's silo.
  // Co-locating them makes one silo carry ~90% of the offered load until
  // (in managed phases) the controller spreads them out.
  auto host0 =
      cluster.directory().Lookup(ActorId{FcCounter::kTypeName, keys[0]});
  if (!host0.has_value()) return out;
  std::vector<int> hot;
  for (int i = 0; i < kActors && static_cast<int>(hot.size()) < kHotActors;
       ++i) {
    auto host =
        cluster.directory().Lookup(ActorId{FcCounter::kTypeName, keys[i]});
    if (host.has_value() && host.value() == host0.value()) hot.push_back(i);
  }
  if (static_cast<int>(hot.size()) < kHotActors) return out;
  std::vector<char> is_hot(kActors, 0);
  for (int i : hot) is_hot[i] = 1;

  Executor* exec = cluster.client_executor();
  Cluster* cl = &cluster;
  auto agg = std::make_shared<Agg>();
  const Micros t0 = harness.Now();
  agg->measure_from = t0 + duration / 5;

  RetryPolicy retry;
  retry.max_retries = 12;
  retry.initial_backoff_us = 10 * kMicrosPerMilli;
  retry.max_backoff_us = 160 * kMicrosPerMilli;

  const int seconds = static_cast<int>(duration / kMicrosPerSecond);
  Rng rng(2024);
  int64_t req_id = 0;
  for (int sec = 0; sec < seconds; ++sec) {
    for (int k = 0; k < kWritesPerSec; ++k) {
      int target;
      if (skewed && rng.NextDouble() < kHotShare) {
        target = hot[rng.NextBelow(kHotActors)];
      } else {
        do {
          target = static_cast<int>(rng.NextBelow(kActors));
        } while (skewed && is_hot[target]);
      }
      Micros fire_at = static_cast<Micros>(sec) * kMicrosPerSecond +
                       static_cast<Micros>(rng.NextBelow(kMicrosPerSecond));
      uint64_t seed = 0xf1a5'0000u + static_cast<uint64_t>(req_id++);
      std::string key = keys[target];
      exec->PostAfter(fire_at, [cl, exec, agg, key, seed, retry] {
        Micros sent = exec->clock()->Now();
        ++agg->outstanding;
        RetryAsync<int64_t>(
            exec, retry, seed,
            [cl, key] {
              CallOptions opts;
              opts.cost_us = kWriteCostUs;
              // Telemetry-class traffic: first to be shed, and subject to
              // the bounded mailbox; Overloaded is transient, so the retry
              // loop backs off and re-sends to the same placement.
              opts.priority = MessagePriority::kTelemetry;
              return cl->Ref<FcCounter>(key).CallWith(opts, &FcCounter::Add,
                                                      int64_t{1});
            },
            IsTransient, [agg](const Status&) { ++agg->retries; })
            .OnReady([agg, sent, exec](Result<int64_t>&& r) {
              --agg->outstanding;
              if (r.ok()) {
                ++agg->acked;
                if (sent >= agg->measure_from) {
                  agg->latency.Record(exec->clock()->Now() - sent);
                }
              } else {
                ++agg->failed;
              }
            });
      });
    }
  }
  out.offered = req_id;

  harness.RunFor(duration + kMicrosPerSecond);
  // Unmanaged skew leaves a deep backlog on the hot silo; give it time to
  // drain so every request resolves and conservation is checkable.
  const Micros give_up = harness.Now() + 120 * kMicrosPerSecond;
  while (agg->outstanding > 0 && harness.Now() < give_up) {
    harness.RunFor(100 * kMicrosPerMilli);
  }
  if (agg->outstanding > 0) return out;

  // Conservation: each acked write applied exactly once, surviving any
  // migration. Verification reads travel as control traffic (never shed).
  int64_t sum = 0;
  for (const std::string& key : keys) {
    CallOptions vopts;
    vopts.priority = MessagePriority::kControl;
    auto f = cluster.Ref<FcCounter>(key).CallWith(vopts, &FcCounter::Value);
    if (!RunUntilReady(harness, f, 10 * kMicrosPerSecond) || !f.Get().ok()) {
      return out;
    }
    sum += f.Get().value();
  }

  out.acked = agg->acked;
  out.failed = agg->failed;
  out.retries = agg->retries;
  out.latency = agg->latency;
  out.counter_sum = sum;
  out.expected_sum = kActors + agg->acked;  // Warmup + acked load writes.
  out.conserved = sum == out.expected_sum;
  out.metrics = harness.SnapshotMetrics();
  out.migrations = CounterOr0(out.metrics, "overload.migrations");
  out.mailbox_rejects = CounterOr0(out.metrics, "overload.mailbox_rejects");
  out.shed = CounterOr0(out.metrics, "overload.shed.telemetry") +
             CounterOr0(out.metrics, "overload.shed.query");
  out.ok = true;
  return out;
}

}  // namespace
}  // namespace aodb::bench

int main(int argc, char** argv) {
  using namespace aodb;
  using namespace aodb::bench;

  Micros duration = BenchDurationUs();
  std::printf("=== Flash crowd: skewed load vs overload management ===\n");
  std::printf(
      "%d counter actors, 4 silos x 1 worker, %dus/write, %d writes/s for"
      " %llds;\nskewed phases send %.0f%% of traffic to %d co-located"
      " actors (1%%).\nLatency window excludes the first 1/5 warm-in.\n\n",
      kActors, static_cast<int>(kWriteCostUs), kWritesPerSec,
      static_cast<long long>(duration / kMicrosPerSecond), kHotShare * 100,
      kHotActors);

  MetricsJsonWriter metrics_out(MetricsJsonPathFromArgs(argc, argv));
  struct Phase {
    const char* name;
    const char* label;
    bool skewed;
    bool managed;
  };
  const Phase kPhases[] = {
      {"uniform, managed", "uniform_managed", false, true},
      {"skewed, unmanaged", "skewed_unmanaged", true, false},
      {"skewed, managed", "skewed_managed", true, true},
  };
  PhaseResult results[3];
  TablePrinter table({"phase", "offered", "acked", "failed", "retries",
                      "p50 (ms)", "p99 (ms)", "migr", "mbox rej", "shed",
                      "conserved"});
  for (int i = 0; i < 3; ++i) {
    results[i] = RunPhase(kPhases[i].skewed, kPhases[i].managed, duration);
    const PhaseResult& r = results[i];
    if (!r.ok) {
      std::fprintf(stderr, "phase '%s' failed to converge\n",
                   kPhases[i].name);
      return 1;
    }
    table.AddRow({kPhases[i].name, TablePrinter::Fmt(r.offered),
                  TablePrinter::Fmt(r.acked), TablePrinter::Fmt(r.failed),
                  TablePrinter::Fmt(r.retries),
                  TablePrinter::FmtMsFromUs(r.latency.Percentile(50)),
                  TablePrinter::FmtMsFromUs(r.latency.Percentile(99)),
                  TablePrinter::Fmt(r.migrations),
                  TablePrinter::Fmt(r.mailbox_rejects),
                  TablePrinter::Fmt(r.shed),
                  r.conserved ? "yes" : "NO"});
    metrics_out.Add(kPhases[i].label, r.metrics);
  }
  table.Print();

  double base_p99 = static_cast<double>(results[0].latency.Percentile(99));
  double unmanaged_p99 =
      static_cast<double>(results[1].latency.Percentile(99));
  double managed_p99 = static_cast<double>(results[2].latency.Percentile(99));
  double ratio = base_p99 > 0 ? managed_p99 / base_p99 : 0;
  std::printf(
      "\nShape check: unmanaged skew queues without bound on the hot silo"
      "\n(p99 %.1f ms vs uniform %.1f ms). With bounded mailboxes,"
      "\nbackpressure retries and hot-actor migration, skewed p99 is"
      "\n%.1f ms = %.2fx the uniform baseline (acceptance: within 2x,"
      "\n%s), and every phase conserves acked writes exactly —"
      "\nmigration loses nothing, retries double-apply nothing.\n",
      unmanaged_p99 / 1000.0, base_p99 / 1000.0, managed_p99 / 1000.0, ratio,
      ratio <= 2.0 ? "met" : "NOT met");
  metrics_out.Write();
  return 0;
}
