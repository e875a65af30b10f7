// Micro-benchmarks of the actor runtime primitives (real wall-clock time,
// google-benchmark): future machinery, actor call round trips on real
// thread pools, fire-and-forget throughput, and the discrete-event
// simulator's event-processing rate (which bounds how fast the figure
// benches run).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "actor/actor_ref.h"
#include "actor/method_registry.h"
#include "actor/runtime.h"
#include "sim/sim_harness.h"

namespace aodb {
namespace {

class BenchCounter : public ActorBase {
 public:
  static constexpr char kTypeName[] = "bench.Counter";
  int64_t Add(int64_t d) {
    value_ += d;
    return value_;
  }
  int64_t Value() { return value_; }

 private:
  int64_t value_ = 0;
};

/// Registers BenchCounter with `cluster` and its methods with the wire lane.
/// A client call crosses a node boundary, so the real-mode benchmarks time
/// frame encode, CRC and decode on the way to the silo.
void RegisterBenchCounter(Cluster& cluster) {
  MethodRegistry& reg = MethodRegistry::Global();
  Status st = reg.Register(BenchCounter::kTypeName, &BenchCounter::Add, "Add");
  if (st.ok()) {
    st = reg.Register(BenchCounter::kTypeName, &BenchCounter::Value, "Value");
  }
  if (!st.ok()) {
    std::fprintf(stderr, "wire registration failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  cluster.RegisterActorType<BenchCounter>();
}

void BM_FutureCreateFulfill(benchmark::State& state) {
  for (auto _ : state) {
    Promise<int> p;
    Future<int> f = p.GetFuture();
    p.SetValue(42);
    benchmark::DoNotOptimize(f.Get().value());
  }
}
BENCHMARK(BM_FutureCreateFulfill);

void BM_FutureContinuationChain(benchmark::State& state) {
  for (auto _ : state) {
    Promise<int> p;
    auto f = p.GetFuture()
                 .Then([](int v) { return v + 1; })
                 .Then([](int v) { return v * 2; });
    p.SetValue(1);
    benchmark::DoNotOptimize(f.Get().value());
  }
}
BENCHMARK(BM_FutureContinuationChain);

void BM_WhenAllFanIn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<Promise<int>> promises(n);
    std::vector<Future<int>> futures;
    futures.reserve(n);
    for (auto& p : promises) futures.push_back(p.GetFuture());
    auto all = WhenAll(futures);
    for (int i = 0; i < n; ++i) promises[i].SetValue(i);
    benchmark::DoNotOptimize(all.Get().value().size());
  }
}
BENCHMARK(BM_WhenAllFanIn)->Arg(8)->Arg(64)->Arg(512);

/// Round-trip latency of one actor call on a real silo with `range(0)`
/// worker threads.
void BM_RealModeCallRoundTrip(benchmark::State& state) {
  RuntimeOptions options;
  options.num_silos = 1;
  options.workers_per_silo = static_cast<int>(state.range(0));
  options.network.client_latency_us = 0;
  options.network.jitter_us = 0;
  RealClusterHandle handle(options);
  RegisterBenchCounter(handle.cluster());
  auto ref = handle->Ref<BenchCounter>("c");
  ref.Call(&BenchCounter::Add, int64_t{1}).Get();  // Activate first.
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref.Call(&BenchCounter::Add, int64_t{1}).Get());
  }
}
BENCHMARK(BM_RealModeCallRoundTrip)->Arg(2)->Arg(8);

/// Sustained fire-and-forget enqueue rate on a real silo: `range(0)` workers,
/// `range(1)` target actors, one producer thread. Measures the send-side cost
/// of a client-to-silo wire tell, frame encode and CRC included (drain
/// happens after timing).
void BM_RealModeTellThroughput(benchmark::State& state) {
  RuntimeOptions options;
  options.num_silos = 1;
  options.workers_per_silo = static_cast<int>(state.range(0));
  options.network.client_latency_us = 0;
  options.network.jitter_us = 0;
  RealClusterHandle handle(options);
  RegisterBenchCounter(handle.cluster());
  const int actors = static_cast<int>(state.range(1));
  std::vector<ActorRef<BenchCounter>> refs;
  refs.reserve(actors);
  for (int i = 0; i < actors; ++i) {
    refs.push_back(handle->Ref<BenchCounter>("t" + std::to_string(i)));
    refs.back().Call(&BenchCounter::Value).Get();  // Activate first.
  }
  int64_t sent = 0;
  for (auto _ : state) {
    refs[sent % actors].Tell(&BenchCounter::Add, int64_t{1});
    ++sent;
  }
  // Drain so the counters match and no work leaks past timing.
  for (int i = 0; i < actors; ++i) {
    int64_t expect = sent / actors + (i < sent % actors ? 1 : 0);
    while (refs[i].Call(&BenchCounter::Value).Get().value() < expect) {
    }
  }
  state.SetItemsProcessed(sent);
}
BENCHMARK(BM_RealModeTellThroughput)
    ->Args({2, 1})
    ->Args({8, 16})
    ->UseRealTime();

/// End-to-end fire-and-forget throughput: each iteration sends a burst of
/// tells and waits for every one to be PROCESSED, so the rate includes the
/// full path — frame encode, link, decode, schedule, dispatch — not just
/// the enqueue. This is the headline client-to-silo hot-path number
/// (`range(0)` workers, `range(1)` actors).
/// `with_recorder` toggles the flight recorder so bench_compare.sh can
/// report its hot-path overhead (the recorder is on by default in
/// production, so the ON variant is the headline number).
void RunTellDrain(benchmark::State& state, bool with_recorder) {
  RuntimeOptions options;
  options.num_silos = 1;
  options.workers_per_silo = static_cast<int>(state.range(0));
  options.network.client_latency_us = 0;
  options.network.jitter_us = 0;
  options.observability.enable_flight_recorder = with_recorder;
  RealClusterHandle handle(options);
  RegisterBenchCounter(handle.cluster());
  const int actors = static_cast<int>(state.range(1));
  constexpr int kBurstPerActor = 512;
  std::vector<ActorRef<BenchCounter>> refs;
  refs.reserve(actors);
  for (int i = 0; i < actors; ++i) {
    refs.push_back(handle->Ref<BenchCounter>("d" + std::to_string(i)));
    refs.back().Call(&BenchCounter::Value).Get();  // Activate first.
  }
  int64_t rounds = 0;
  for (auto _ : state) {
    ++rounds;
    for (int b = 0; b < kBurstPerActor; ++b) {
      for (int i = 0; i < actors; ++i) {
        refs[i].Tell(&BenchCounter::Add, int64_t{1});
      }
    }
    for (int i = 0; i < actors; ++i) {
      while (refs[i].Call(&BenchCounter::Value).Get().value() <
             rounds * kBurstPerActor) {
      }
    }
  }
  state.SetItemsProcessed(rounds * kBurstPerActor * actors);
  // Scheduler behavior counters (whole-run totals from the silo executor):
  // how much work migrated between workers and how often workers parked.
  MetricsSnapshot snap = handle->SnapshotMetrics();
  state.counters["steals"] =
      static_cast<double>(snap.gauges.at("executor.steals"));
  state.counters["parks"] =
      static_cast<double>(snap.gauges.at("executor.parks"));
  state.counters["tasks_run"] =
      static_cast<double>(snap.gauges.at("executor.tasks_run"));
}

void BM_RealModeTellDrain(benchmark::State& state) {
  RunTellDrain(state, /*with_recorder=*/true);
}
BENCHMARK(BM_RealModeTellDrain)
    ->Args({2, 1})
    ->Args({8, 16})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Recorder-off control for the flight_recorder_overhead ratio; compared
/// against BM_RealModeTellDrain/8/16 by bench_compare.sh.
void BM_RealModeTellDrainNoRecorder(benchmark::State& state) {
  RunTellDrain(state, /*with_recorder=*/false);
}
BENCHMARK(BM_RealModeTellDrainNoRecorder)
    ->Args({8, 16})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Discrete-event engine rate: virtual actor messages simulated per real
/// second (the figure benches' speed limit).
void BM_SimulatorEventRate(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    RuntimeOptions options;
    options.num_silos = 4;
    options.workers_per_silo = 2;
    SimHarness harness(options);
    RegisterBenchCounter(harness.cluster());
    std::vector<ActorRef<BenchCounter>> refs;
    for (int i = 0; i < 64; ++i) {
      refs.push_back(
          harness.cluster().Ref<BenchCounter>("s" + std::to_string(i)));
    }
    state.ResumeTiming();
    constexpr int kMessages = 20000;
    for (int i = 0; i < kMessages; ++i) {
      refs[i % refs.size()].Tell(&BenchCounter::Add, int64_t{1});
    }
    harness.RunAll(kMessages * 4);
    state.SetItemsProcessed(state.items_processed() + kMessages);
  }
}
BENCHMARK(BM_SimulatorEventRate)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace aodb

BENCHMARK_MAIN();
