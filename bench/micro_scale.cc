// Million-actor scale bench (ROADMAP item 1): per-message cost as the
// REGISTERED actor population grows 1000x while the RESIDENT working set
// stays bounded, plus raw directory throughput vs. lock-stripe count.
//
// Cluster mode (default) registers {1k, 100k, 1M} durable actors on one
// 8-worker silo with a fixed working-set cap, then drives a skewed traffic
// mix — 99% Zipfian(0.99) over a bounded active set, 1% uniform over the
// whole registered population (the uniform tail is what continuously faults
// paged-out actors back in). Reports per-message cost, the activation-fault
// count, and the fault p99 from the activation.fault.* series.
//
// Directory mode (--mode=directory) hammers a raw Directory from 8 threads
// with a lookup-heavy mix across stripe counts {1, 2, 4, 8, 16} — the
// lock-striping win as its own tracked number (bench_compare.sh snapshots
// the 8-vs-1 speedup).
//
// Env overrides: AODB_SCALE_ACTORS (max registered row, default 1000000),
// AODB_SCALE_MIN_ACTORS (first registered row, default 1000),
// AODB_SCALE_MESSAGES (drive-phase messages per row, default 1600000),
// AODB_SCALE_RESIDENT (working-set cap, default 131072),
// AODB_SCALE_REPEATS (min-of-N repeats, default 2),
// AODB_SCALE_TAIL_PER_MILLE (uniform cold-tail share, default 10 = 1%).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "actor/actor_ref.h"
#include "actor/method_registry.h"
#include "actor/runtime.h"
#include "common/codec.h"
#include "common/telemetry.h"
#include "common/zipf.h"
#include "storage/mem_kv.h"
#include "storage/persistent_actor.h"
#include "storage/state_storage.h"

namespace aodb {
namespace {

struct ScaleState {
  int64_t value = 0;
  void Encode(BufWriter* w) const { w->PutSigned(value); }
  Status Decode(BufReader* r) { return r->GetSigned(&value); }
};

/// Durable counter flushed on deactivation — the paper's benchmark
/// configuration, and the one that makes paging do real storage work: every
/// page-out of a dirty actor writes its snapshot, every fault-in reads it.
class ScaleActor : public PersistentActor<ScaleState> {
 public:
  static constexpr char kTypeName[] = "scale.Counter";
  int64_t Add(int64_t d) {
    state().value += d;
    MarkDirty();
    return state().value;
  }
  int64_t Value() { return state().value; }
};

/// Client tells cross a node boundary, so they go out as wire frames.
void RegisterScaleWire() {
  MethodRegistry& reg = MethodRegistry::Global();
  Status st = reg.Register(ScaleActor::kTypeName, &ScaleActor::Add, "Add");
  if (st.ok()) {
    st = reg.Register(ScaleActor::kTypeName, &ScaleActor::Value, "Value");
  }
  if (!st.ok()) {
    std::fprintf(stderr, "wire registration failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
}

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atoll(v) : fallback;
}

std::string Key(int64_t i) { return "a" + std::to_string(i); }

int64_t Processed(Cluster& cluster) { return cluster.TotalMessagesProcessed(); }

/// Blocks until the cluster has processed `target` messages total.
void DrainTo(Cluster& cluster, int64_t target) {
  while (Processed(cluster) < target) {
    std::this_thread::yield();
  }
}

struct Row {
  int64_t registered = 0;
  int64_t messages = 0;
  double msgs_per_sec = 0;
  double ns_per_msg = 0;
  int64_t faults = 0;
  int64_t paged_out = 0;
  int64_t fault_p99_us = 0;
  int64_t directory_entries = 0;
};

Row RunClusterRow(int64_t registered, int64_t messages, int64_t resident_cap,
                  int64_t tail_per_mille) {
  RuntimeOptions options;
  options.num_silos = 1;
  options.workers_per_silo = 8;
  options.network.client_latency_us = 0;
  options.network.jitter_us = 0;
  options.max_resident_activations = static_cast<int>(resident_cap);
  RealClusterHandle handle(options);
  RegisterScaleWire();
  handle->RegisterActorType<ScaleActor>();
  MemKvStore backing;
  handle->RegisterStateStorage(
      "default", std::make_shared<KvStateStorage>(&backing));

  // Registration phase: touch every actor once so all `registered` ids hold
  // a directory entry. Past the cap the eviction loop pages the cold tail
  // out behind the writer; the throttle keeps the in-flight envelope count
  // (and thus memory) bounded.
  constexpr int64_t kThrottleWindow = 32768;
  int64_t base = Processed(handle.cluster());
  for (int64_t i = 0; i < registered; ++i) {
    handle->Ref<ScaleActor>(Key(i)).Tell(&ScaleActor::Add, int64_t{1});
    if ((i + 1) % kThrottleWindow == 0) {
      DrainTo(handle.cluster(), base + i + 1 - kThrottleWindow / 2);
    }
  }
  DrainTo(handle.cluster(), base + registered);

  // Drive phase: 99% of traffic is Zipfian(0.99) over a FIXED-SIZE active
  // set strided through the registered population (the hot set is the same
  // size on every row, so per-message cost differences isolate the cost of
  // the registered population, not of a bigger cache footprint); 1% is
  // uniform over everything registered, continuously faulting cold actors
  // in. Single producer, same send path as the TellDrain baseline.
  const int64_t active = std::min<int64_t>(registered, 1024);
  const int64_t stride = registered / active;
  ZipfGenerator zipf(static_cast<uint64_t>(active));
  Rng rng(0x5ca1ab1eULL + static_cast<uint64_t>(registered));
  auto draw = [&]() -> int64_t {
    if (tail_per_mille > 0 &&
        rng.NextBelow(1000) < static_cast<uint64_t>(tail_per_mille)) {
      return static_cast<int64_t>(
          rng.NextBelow(static_cast<uint64_t>(registered)));
    }
    return static_cast<int64_t>(zipf.Next(&rng)) * stride;
  };

  // Warm-up: fault the strided active set back in (after registration the
  // resident survivors are the most recently REGISTERED ids, not the hot
  // ids) so the measured window sees steady state, with faults coming only
  // from the uniform tail.
  const int64_t warmup = std::min<int64_t>(messages / 4, 50000);
  int64_t warm_base = Processed(handle.cluster());
  for (int64_t m = 0; m < warmup; ++m) {
    handle->Ref<ScaleActor>(Key(draw())).Tell(&ScaleActor::Add, int64_t{1});
    if ((m + 1) % kThrottleWindow == 0) {
      DrainTo(handle.cluster(), warm_base + m + 1 - kThrottleWindow / 2);
    }
  }
  DrainTo(handle.cluster(), warm_base + warmup);

  MetricsSnapshot before = handle->SnapshotMetrics();
  int64_t drive_base = Processed(handle.cluster());
  auto t0 = std::chrono::steady_clock::now();
  for (int64_t m = 0; m < messages; ++m) {
    handle->Ref<ScaleActor>(Key(draw())).Tell(&ScaleActor::Add, int64_t{1});
    if ((m + 1) % kThrottleWindow == 0) {
      DrainTo(handle.cluster(), drive_base + m + 1 - kThrottleWindow / 2);
    }
  }
  DrainTo(handle.cluster(), drive_base + messages);
  auto t1 = std::chrono::steady_clock::now();
  double secs = std::chrono::duration<double>(t1 - t0).count();

  MetricsSnapshot after = handle->SnapshotMetrics();
  MetricsSnapshot delta = after.Delta(before);
  Row row;
  row.registered = registered;
  row.messages = messages;
  row.msgs_per_sec = static_cast<double>(messages) / secs;
  row.ns_per_msg = secs * 1e9 / static_cast<double>(messages);
  row.faults = delta.counters["activation.fault.count"];
  row.paged_out = delta.counters["activation.paged_out"];
  auto hit = delta.histograms.find("activation.fault.queue_wait_us");
  if (hit != delta.histograms.end() && hit->second.count() > 0) {
    row.fault_p99_us = hit->second.Percentile(99);
  }
  row.directory_entries =
      static_cast<int64_t>(handle->directory().Count());
  return row;
}

int RunClusterMode() {
  const int64_t max_actors = EnvInt("AODB_SCALE_ACTORS", 1000000);
  // The window must be long enough to amortize fixed post-registration
  // costs (first-touch page faults over the grown heap dominate a short
  // window and masquerade as per-message cost).
  const int64_t messages = EnvInt("AODB_SCALE_MESSAGES", 1600000);
  const int64_t resident = EnvInt("AODB_SCALE_RESIDENT", 131072);
  const int64_t repeats = EnvInt("AODB_SCALE_REPEATS", 2);
  const int64_t tail = EnvInt("AODB_SCALE_TAIL_PER_MILLE", 10);
  // AODB_SCALE_MIN_ACTORS skips the small rows (ratio_vs_1k then reads as
  // ratio-vs-first-row): the bench_compare fault leg uses it to re-run only
  // the 1M row with the cold tail enabled.
  const int64_t min_actors =
      std::max<int64_t>(EnvInt("AODB_SCALE_MIN_ACTORS", 1000), 1);
  std::vector<int64_t> rows;
  for (int64_t n = min_actors; n < max_actors; n *= 100) rows.push_back(n);
  rows.push_back(max_actors);

  std::printf("# micro_scale cluster mode: 1 silo x 8 workers, cap=%" PRId64
              ", Zipf(0.99) active set, %.1f%% uniform tail\n",
              resident, static_cast<double>(tail) / 10.0);
  std::printf("%-12s %-10s %-14s %-12s %-12s %-10s %-12s %-14s %s\n",
              "registered", "messages", "msgs_per_sec", "ns_per_msg",
              "ratio_vs_1k", "faults", "paged_out", "fault_p99_us",
              "dir_entries");
  // Min-of-N with INTERLEAVED sweeps: wall-clock throughput on a shared
  // host drifts over minutes, so running a full {1k, ..., 1M} sweep per
  // repeat (instead of N consecutive repeats per row) keeps a slow stretch
  // from landing entirely on one row and skewing the ratio; the fastest
  // repeat per row is the least-perturbed measurement (fault counters come
  // from that same repeat).
  std::vector<Row> best(rows.size());
  for (int64_t rep = 0; rep < repeats; ++rep) {
    for (size_t i = 0; i < rows.size(); ++i) {
      Row r = RunClusterRow(rows[i], messages, resident, tail);
      if (rep == 0 || r.ns_per_msg < best[i].ns_per_msg) best[i] = r;
    }
  }
  double baseline_ns = 0;
  for (const Row& r : best) {
    if (baseline_ns == 0) baseline_ns = r.ns_per_msg;
    std::printf("%-12" PRId64 " %-10" PRId64 " %-14.0f %-12.1f %-12.3f "
                "%-10" PRId64 " %-12" PRId64 " %-14" PRId64 " %" PRId64 "\n",
                r.registered, r.messages, r.msgs_per_sec, r.ns_per_msg,
                r.ns_per_msg / baseline_ns, r.faults, r.paged_out,
                r.fault_p99_us, r.directory_entries);
    std::fflush(stdout);
  }
  return 0;
}

/// One thread's share of the directory-throughput drive: a lookup-heavy mix
/// (~90% Lookup of a registered id, ~10% LookupOrPlace of a fresh id) over a
/// private key range, mimicking the silo hot path (every Send resolves the
/// target; placements are the cold tail).
void DirectoryWorker(Directory* dir, int thread, int64_t ops,
                     int64_t prefill) {
  Rng rng(0xd1eec7 + static_cast<uint64_t>(thread) * 7919);
  int64_t placed = prefill;
  for (int64_t i = 0; i < ops; ++i) {
    if (rng.NextBelow(10) == 0) {
      ActorId id{"scale.Dir",
                 "t" + std::to_string(thread) + "-" + std::to_string(placed)};
      dir->LookupOrPlace(id, kClientSiloId);
      ++placed;
    } else {
      ActorId id{"scale.Dir",
                 "t" + std::to_string(thread) + "-" +
                     std::to_string(rng.NextBelow(
                         static_cast<uint64_t>(placed)))};
      dir->Lookup(id);
    }
  }
}

int RunDirectoryMode(const std::vector<int>& shard_counts) {
  const int threads = 8;
  const int64_t ops = EnvInt("AODB_SCALE_DIR_OPS", 2000000);
  const int64_t prefill = 4096;
  std::printf("# micro_scale directory mode: %d threads, %" PRId64
              " ops/thread, 90/10 lookup/place\n",
              threads, ops);
  // Wall-clock speedup needs real cores; contended_per_kop (try_lock misses
  // per thousand ops, from the directory.partition.*.contention counters)
  // shows the serialization striping removes even on a 1-core host.
  std::printf("%-8s %-8s %-14s %-14s %s\n", "shards", "threads",
              "mops_per_sec", "speedup_vs_1", "contended_per_kop");
  double base = 0;
  for (int shards : shard_counts) {
    MetricsRegistry registry;
    Directory dir(/*num_silos=*/8, Placement::kRandom, /*seed=*/42, shards);
    dir.BindMetrics(&registry);
    for (int t = 0; t < threads; ++t) {
      for (int64_t i = 0; i < prefill; ++i) {
        dir.LookupOrPlace(
            ActorId{"scale.Dir",
                    "t" + std::to_string(t) + "-" + std::to_string(i)},
            kClientSiloId);
      }
    }
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(DirectoryWorker, &dir, t, ops, prefill);
    }
    for (auto& th : pool) th.join();
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    double mops = static_cast<double>(ops) * threads / secs / 1e6;
    if (base == 0) base = mops;
    int64_t contended = 0;
    MetricsSnapshot snap = registry.Snapshot();
    for (const auto& [name, v] : snap.counters) {
      if (name.rfind("directory.partition.", 0) == 0 &&
          name.size() > 11 &&
          name.compare(name.size() - 11, 11, ".contention") == 0) {
        contended += v;
      }
    }
    double per_kop =
        static_cast<double>(contended) * 1000.0 /
        (static_cast<double>(ops) * threads);
    std::printf("%-8d %-8d %-14.2f %-14.2f %.3f\n", shards, threads, mops,
                mops / base, per_kop);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace aodb

int main(int argc, char** argv) {
  // --mode=directory sweeps stripe counts {1, 2, 4, 8, 16}; --shards=N runs
  // directory mode at a single stripe count (implies --mode=directory).
  bool directory_mode = false;
  std::vector<int> shard_counts{1, 2, 4, 8, 16};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mode=directory") == 0) directory_mode = true;
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      int n = std::atoi(argv[i] + 9);
      if (n < 1) {
        std::fprintf(stderr, "bad --shards value: %s\n", argv[i]);
        return 2;
      }
      directory_mode = true;
      shard_counts = {n};
    }
  }
  return directory_mode ? aodb::RunDirectoryMode(shard_counts)
                        : aodb::RunClusterMode();
}
