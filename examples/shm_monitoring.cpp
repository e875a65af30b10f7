// Structural health monitoring walkthrough (the paper's case study 1):
// build a small bridge-monitoring topology, ingest sensor packets, and run
// every query type the platform supports — live data, raw ranges,
// statistical aggregates, threshold alerts — then demonstrate durable
// state across deactivation.
//
//   $ ./build/examples/shm_monitoring
//
// Runs on the discrete-event simulator so the output is deterministic.

#include <cstdio>
#include <cstdlib>

#include "loadgen/signal.h"
#include "shm/platform.h"
#include "sim/sim_harness.h"
#include "storage/mem_kv.h"
#include "storage/state_storage.h"

using namespace aodb;
using namespace aodb::shm;

/// The result of a call the simulator has already been run for; exits
/// non-zero if it is still pending or failed.
template <typename T>
T Must(const Future<T>& f, const char* what) {
  if (!f.Ready()) {
    std::fprintf(stderr, "%s did not complete\n", what);
    std::exit(1);
  }
  Result<T> r = f.Get();
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

int main() {
  RuntimeOptions options;
  options.num_silos = 2;
  options.workers_per_silo = 2;
  SimHarness harness(options);

  ShmPlatform::RegisterTypes(harness.cluster());
  ShmPlatform::ApplyPaperPlacement(harness.cluster());
  // Durable grain state in an (in-memory) store.
  auto backing = std::make_shared<MemKvStore>();
  harness.cluster().RegisterStateStorage(
      "default", std::make_shared<KvStateStorage>(backing.get()));
  ShmPlatform platform(&harness.cluster());

  // One organization ("Great Belt Bridge"), 20 sensors, 2 channels each,
  // every 5th sensor with a virtual channel; alerts above 3.0.
  ShmTopology topology;
  topology.sensors = 20;
  topology.sensors_per_org = 20;
  topology.virtual_every = 5;
  topology.hour_window_us = 5 * kMicrosPerSecond;  // Compressed "hours".
  topology.day_window_us = 20 * kMicrosPerSecond;
  topology.month_window_us = 60 * kMicrosPerSecond;
  topology.enable_alerts = true;
  topology.threshold_high = 3.0;

  auto setup = platform.Setup(topology);
  harness.RunFor(30 * kMicrosPerSecond);
  Status set_up = Must(setup, "setup");
  if (!set_up.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", set_up.ToString().c_str());
    return 1;
  }
  std::printf("topology: %d sensors, 1 organization, %d channels\n",
              topology.sensors, topology.sensors * 2 + 4);

  // Ingest 30 seconds of signal (one packet per sensor per second).
  std::vector<SignalGenerator> signals;
  for (int s = 0; s < topology.sensors; ++s) signals.emplace_back(1000 + s);
  for (int wave = 0; wave < 30; ++wave) {
    for (int s = 0; s < topology.sensors; ++s) {
      platform.Insert(topology, s, signals[s].Packet(harness.Now(), 20, 10));
    }
    harness.RunFor(kMicrosPerSecond);
  }
  harness.RunFor(5 * kMicrosPerSecond);

  // --- Live data (requirement 7) -------------------------------------------
  auto live = platform.LiveData(topology, 0);
  harness.RunFor(5 * kMicrosPerSecond);
  std::vector<LiveDataEntry> entries = Must(live, "live data");
  std::printf("\nlive data: %zu channels reporting, e.g.\n", entries.size());
  for (size_t i = 0; i < 3 && i < entries.size(); ++i) {
    std::printf("  %-8s t=%lldus value=%.3f\n", entries[i].channel_key.c_str(),
                static_cast<long long>(entries[i].ts), entries[i].value);
  }

  // --- Raw range (requirement 6: interactive exploration) -------------------
  auto range = platform.RawRange(topology, 3, 0,
                                 harness.Now() - 15 * kMicrosPerSecond,
                                 harness.Now());
  harness.RunFor(2 * kMicrosPerSecond);
  std::printf("\nraw range of s3.c0 (last 15s): %zu points\n",
              Must(range, "raw range").points.size());

  // --- Statistical aggregates (requirement 6) --------------------------------
  auto aggs = platform.HourAggregates(topology, 3, 0, 0, harness.Now());
  harness.RunFor(2 * kMicrosPerSecond);
  std::printf("\nhourly aggregates of s3.c0:\n");
  std::vector<AggregateView> agg_windows = Must(aggs, "hour aggregates");
  for (const AggregateView& w : agg_windows) {
    std::printf("  window@%3llds n=%-3lld mean=%6.3f min=%6.3f max=%6.3f "
                "stddev=%5.3f\n",
                static_cast<long long>(w.window_start / kMicrosPerSecond),
                static_cast<long long>(w.count), w.mean, w.min, w.max,
                w.stddev);
  }

  // --- Accumulated change (requirement 4) -------------------------------------
  auto acc = harness.cluster()
                 .Ref<PhysicalChannelActor>(ShmPlatform::ChannelKey(3, 0))
                 .Call(&PhysicalChannelActor::AccumulatedChange);
  harness.RunFor(2 * kMicrosPerSecond);
  std::printf("\naccumulated change of s3.c0: %.2f\n",
              Must(acc, "accumulated change"));

  // --- Alerts (requirement 5) ---------------------------------------------------
  auto alerts = harness.cluster()
                    .Ref<UserActor>(ShmPlatform::UserKey(0))
                    .Call(&UserActor::TotalAlerts);
  harness.RunFor(2 * kMicrosPerSecond);
  std::printf("\nthreshold alerts delivered to the org user: %lld\n",
              static_cast<long long>(Must(alerts, "total alerts")));

  // --- Durability: deactivate everything, reactivate, state is intact -----------
  auto flushed = harness.cluster().DeactivateAll();
  harness.RunFor(10 * kMicrosPerSecond);
  Status flush = Must(flushed, "DeactivateAll");
  if (!flush.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", flush.ToString().c_str());
    return 1;
  }
  std::printf("\nafter DeactivateAll: %zu activations, %lld state snapshots "
              "persisted\n",
              harness.cluster().TotalActivations(),
              static_cast<long long>(backing->Count().value()));
  auto acc2 = harness.cluster()
                  .Ref<PhysicalChannelActor>(ShmPlatform::ChannelKey(3, 0))
                  .Call(&PhysicalChannelActor::AccumulatedChange);
  harness.RunFor(5 * kMicrosPerSecond);
  std::printf("reactivated s3.c0 accumulated change: %.2f (restored)\n",
              Must(acc2, "reactivated accumulated change"));
  std::printf("\nOK\n");
  return 0;
}
