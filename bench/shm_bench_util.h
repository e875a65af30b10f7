// Shared harness for the SHM figure benchmarks: builds a simulated cluster,
// sets up the §6.1 topology, drives the load generator, and reports
// throughput/latency/utilization. Experiment durations are virtual seconds
// (deterministic); override with AODB_BENCH_SECONDS.

#ifndef AODB_BENCH_SHM_BENCH_UTIL_H_
#define AODB_BENCH_SHM_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "actor/actor_ref.h"
#include "actor/method_registry.h"
#include "common/telemetry.h"
#include "loadgen/shm_loadgen.h"
#include "shm/platform.h"
#include "sim/sim_harness.h"
#include "storage/mem_kv.h"
#include "storage/state_storage.h"

namespace aodb {
namespace bench {

/// Virtual-time measurement duration (default 30 s; the paper ran 10 min
/// per point — deterministic simulation does not need that much).
inline Micros BenchDurationUs() {
  const char* env = std::getenv("AODB_BENCH_SECONDS");
  int seconds = env != nullptr ? std::atoi(env) : 30;
  if (seconds < 5) seconds = 5;
  return static_cast<Micros>(seconds) * kMicrosPerSecond;
}

struct ShmRunConfig {
  RuntimeOptions runtime;
  shm::ShmTopology topology;
  LoadGenOptions load;
  /// Use the paper's placement (prefer-local channels). Disable to measure
  /// the random-placement baseline in the placement ablation.
  bool paper_placement = true;
  /// Extra REGISTERED-but-dormant actors touched once before the measured
  /// interval (fig7's registered-actor-count axis): they hold directory
  /// entries for the whole run but offer no load, so with a working-set cap
  /// (runtime.max_resident_activations) they page out and the measured
  /// interval shows whether throughput is flat in the registered count.
  int dormant_registered = 0;
};

/// A registered-but-idle actor for the dormant-population axis.
class DormantActor : public ActorBase {
 public:
  static constexpr char kTypeName[] = "bench.Dormant";
  void Ping() {}
};

/// Trace sampling for a bench run: AODB_TRACE_SAMPLE=N turns on 1-in-N root
/// sampling (0 / unset = tracing off), e.g. for the tracing-overhead
/// experiment in EXPERIMENTS.md.
inline int TraceSampleFromEnv() {
  const char* env = std::getenv("AODB_TRACE_SAMPLE");
  return env != nullptr ? std::atoi(env) : 0;
}

/// Parses --metrics-json=<path> from a bench binary's argv (empty when the
/// flag is absent).
inline std::string MetricsJsonPathFromArgs(int argc, char** argv) {
  const std::string prefix = "--metrics-json=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return std::string();
}

/// Collects one {"label", "metrics"} object per sweep point and writes the
/// array to the --metrics-json path. A no-op when the flag was absent.
class MetricsJsonWriter {
 public:
  explicit MetricsJsonWriter(std::string path) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& label, const MetricsSnapshot& snap) {
    if (!enabled()) return;
    if (!entries_.empty()) entries_ += ",\n";
    entries_ += "  {\"label\":\"" + label + "\",\"metrics\":" + snap.ToJson() +
                "}";
  }

  /// Writes the accumulated array; returns false (with a message on stderr)
  /// if the path is not writable.
  bool Write() const {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write metrics json to %s\n",
                   path_.c_str());
      return false;
    }
    std::fprintf(f, "[\n%s\n]\n", entries_.c_str());
    std::fclose(f);
    return true;
  }

 private:
  std::string path_;
  std::string entries_;
};

struct ShmRunResult {
  LoadGenReport report;
  /// Mean CPU utilization across silos during the measurement interval.
  double utilization = 0;
  /// Full registry delta over the load interval (counters/histograms are
  /// interval rates, gauges are end-of-run levels) — what --metrics-json
  /// exports per sweep point. Wire traffic is "wire.requests",
  /// "wire.request_bytes", "wire.replies" and "wire.reply_bytes" (measured
  /// encoded frame sizes).
  MetricsSnapshot metrics;
  bool setup_ok = false;
  bool drained = false;
};

/// Runs one complete experiment in virtual time.
inline ShmRunResult RunShmExperiment(const ShmRunConfig& config) {
  ShmRunResult result;
  MemKvStore state_backing;
  SimHarness harness(config.runtime);
  shm::ShmPlatform::RegisterTypes(harness.cluster());
  if (config.runtime.max_resident_activations > 0) {
    // A working-set cap deactivates actors mid-run, and SHM actors are
    // PersistentActors: without a backing provider they run volatile and a
    // page-out would silently drop sensor/channel configuration (fault-in
    // then fails every insert with "sensor not configured"). Register the
    // in-memory store only for capped runs so the historical uncapped
    // fig6/fig7 baselines keep their exact event schedules.
    harness.cluster().RegisterStateStorage(
        "default", std::make_shared<KvStateStorage>(&state_backing));
  }
  if (config.paper_placement) {
    shm::ShmPlatform::ApplyPaperPlacement(harness.cluster());
  }
  shm::ShmPlatform platform(&harness.cluster());

  auto setup = platform.Setup(config.topology);
  // Topology setup is sized ~10 messages per sensor; give it generous
  // virtual time, then verify.
  harness.RunFor(120 * kMicrosPerSecond);
  if (!setup.Ready() || !setup.Get().ok() || !setup.Get().value().ok()) {
    return result;
  }

  if (config.dormant_registered > 0) {
    // Register the dormant population before measurement: one touch per
    // actor creates its directory entry, chunked so the eviction loop pages
    // the cold tail out as the sweep proceeds instead of ballooning the
    // resident set.
    Status wired = MethodRegistry::Global().Register(
        DormantActor::kTypeName, &DormantActor::Ping, "Ping");
    if (!wired.ok()) return result;
    harness.cluster().RegisterActorType<DormantActor>();
    constexpr int kChunk = 8192;
    for (int i = 0; i < config.dormant_registered; ++i) {
      harness.cluster()
          .Ref<DormantActor>("dormant" + std::to_string(i))
          .Tell(&DormantActor::Ping);
      if ((i + 1) % kChunk == 0) harness.RunFor(200 * kMicrosPerMilli);
    }
    harness.RunFor(5 * kMicrosPerSecond);
  }
  result.setup_ok = true;

  // Measure utilization over the load interval only.
  std::vector<Micros> busy_before;
  for (int i = 0; i < config.runtime.num_silos; ++i) {
    busy_before.push_back(harness.silo_executor(i)->Stats().busy_us);
  }
  MetricsSnapshot metrics_before = harness.SnapshotMetrics();
  Micros load_start = harness.Now();

  ShmLoadGen gen(&platform, config.topology, harness.client_executor(),
                 config.load);
  gen.Start();
  harness.RunUntil(gen.end_time() + 30 * kMicrosPerSecond);
  result.drained = gen.Done();
  Micros load_end = gen.end_time();

  double total_busy = 0;
  for (int i = 0; i < config.runtime.num_silos; ++i) {
    total_busy += static_cast<double>(
        harness.silo_executor(i)->Stats().busy_us - busy_before[i]);
  }
  double capacity = static_cast<double>(load_end - load_start) *
                    config.runtime.workers_per_silo *
                    config.runtime.num_silos;
  // Tasks assigned near the horizon are charged in full, so the raw ratio
  // can slightly exceed 1 at saturation; clamp for reporting.
  result.utilization =
      capacity > 0 ? std::min(1.0, total_busy / capacity) : 0;
  result.metrics = harness.SnapshotMetrics().Delta(metrics_before);
  result.report = gen.Finish();
  return result;
}

}  // namespace bench
}  // namespace aodb

#endif  // AODB_BENCH_SHM_BENCH_UTIL_H_
