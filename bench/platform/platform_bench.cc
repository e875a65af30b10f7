// Wall-clock benchmark of the SHM platform on the real runtime: two silos of
// one worker each (RealClusterHandle), FileKvStore state storage, the paper's
// placement, and a single generator thread issuing inserts, live-data and
// raw-range queries. Prints every metric as `workload metric value unit` and,
// as its last line, one JSON object with the run's verdict and metrics.
//
//   platform_bench --workload ingest_mix --seed 1 --seconds 20 --trace 0
//
// A run builds the cluster three times. Each instance is set up (setup_s is
// the median), warmed up, runs its share of the open loop (Poisson
// arrivals, latency from the scheduled send time) and of the closed loop (a
// fixed number of operations outstanding), and has its outputs checked; the
// run's metrics pool the instances. --trace 1 traces the second and third
// instances and prints the per-layer metrics instead of the end-to-end ones.
// See README.md for the metric definitions.

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <semaphore>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "actor/actor_ref.h"
#include "actor/cluster.h"
#include "actor/wire_format.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/wire.h"
#include "common/zipf.h"
#include "loadgen/signal.h"
#include "shm/platform.h"
#include "shm/types.h"
#include "span_budget.h"
#include "storage/file_kv.h"
#include "storage/state_storage.h"
#include "timed_storage.h"
#include "workloads.h"

namespace aodb {
namespace platform_bench {
namespace {

namespace fs = std::filesystem;

constexpr int kNumSilos = 2;
constexpr int kWorkersPerSilo = 1;
constexpr int kInstances = 3;
constexpr uint64_t kClusterSeed = 42;
/// Points per insert packet (10 per channel) and their spacing.
constexpr int kPacketPoints = 20;
constexpr double kPacketRateHz = 200.0;
/// Raw-range queries ask for the last second of a channel.
constexpr Micros kRawSpanUs = kMicrosPerSecond;
/// Sampled roots per traced instance and operation type: enough for a
/// stable budget, few enough that no span ring wraps.
constexpr double kTargetTracedInserts = 1500;
constexpr double kTargetTracedQueries = 250;
/// Own trace ids for the generator's roots, disjoint from the tracer's
/// counter; id 1 marks untraced requests so the client call does not draw.
constexpr uint64_t kRootTraceBase = uint64_t{1} << 32;
/// Bound on every wait for outstanding operations.
constexpr int64_t kDrainTimeoutNs = int64_t{60} * 1000 * 1000 * 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 12;
  bool trace = false;
  bool smoke = false;
  bool calibrate = false;
  std::string work_dir = "build-bench";
};

/// Exits without a result. _Exit, because runtime threads may still be
/// running callbacks into this run's state.
[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "platform_bench: %s\n", msg.c_str());
  std::_Exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--calibrate") {
      a.calibrate = true;
    } else if (flag == "--work-dir") {
      a.work_dir = value();
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (FindWorkload(a.workload) == nullptr) {
    Die("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds >= 1 && a.seconds <= 600)) Die("--seconds out of range");
  if (a.smoke || a.calibrate) a.trace = true;
  return a;
}

// --- Sample statistics -------------------------------------------------------

/// Percentile p in [0, 100] by linear interpolation between order statistics.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void SleepUntilNs(int64_t t_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(t_ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// --- Metric output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& items) {
  std::string out = "{";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(items[i].name);
    out += "\": {\"value\": ";
    out += FormatNumber(items[i].value);
    out += ", \"unit\": \"";
    out += JsonEscape(items[i].unit);
    out += "\"}";
  }
  out += '}';
  return out;
}

// --- One cluster instance -----------------------------------------------------

RuntimeOptions ClusterOptions(const WorkloadSpec& spec, bool traced) {
  RuntimeOptions o;
  o.num_silos = kNumSilos;
  o.workers_per_silo = kWorkersPerSilo;
  // No modelled network sleep: cross-node delivery still hops through the
  // destination executor's timer thread, which is real code.
  o.network.client_latency_us = 0;
  o.network.silo_latency_us = 0;
  o.network.jitter_us = 0;
  o.network.bytes_per_us = 1e12;
  o.wire.require_wire = true;
  o.max_resident_activations = spec.max_resident_per_silo;
  if (traced) {
    o.trace.sample_every = 64;
    o.trace.ring_capacity = 65536;
  }
  // The runtime's own randomness (placement) is part of the fixed set-up:
  // runs differ only in the inputs --seed makes.
  o.seed = kClusterSeed;
  return o;
}

shm::ShmTopology Topology(const WorkloadSpec& spec) {
  shm::ShmTopology t;
  t.sensors = spec.sensors;
  t.window_capacity = spec.window_capacity;
  return t;
}

/// Everything one set-up owns. Members are declared in dependency order and
/// TearDown releases them in reverse: the cluster holds the timed storage,
/// which points into the FileKv store.
struct Instance {
  std::string kv_dir;
  std::unique_ptr<FileKvStore> kv;
  std::unique_ptr<KvStateStorage> kv_storage;
  std::shared_ptr<TimedStateStorage> storage;
  std::unique_ptr<RealClusterHandle> handle;
  std::unique_ptr<shm::ShmPlatform> platform;
  /// Resident activations once the windows are prefilled (before the cold
  /// start, which deactivates everything).
  size_t resident_after_setup = 0;

  Cluster& cluster() { return handle->cluster(); }

  /// Stops the cluster (no state flush) and joins its threads.
  void Stop() {
    if (handle) handle->Shutdown();
  }
  void TearDown() {
    Stop();
    platform.reset();
    handle.reset();
    storage.reset();
    kv_storage.reset();
    kv.reset();
  }
};

/// Opens the store in `dir` and starts a cluster over it with every SHM type
/// registered and the paper's placement.
Status StartCluster(const WorkloadSpec& spec, bool traced,
                    const std::string& dir, Instance* inst) {
  inst->kv_dir = dir;
  FileKvOptions kvo;
  kvo.sync_writes = false;  // One fflush per record, no fsync.
  auto kv = FileKvStore::Open(dir, kvo);
  if (!kv.ok()) return kv.status();
  inst->kv = std::move(kv).value();
  inst->kv_storage = std::make_unique<KvStateStorage>(inst->kv.get());
  inst->handle = std::make_unique<RealClusterHandle>(
      ClusterOptions(spec, traced));
  Cluster& cluster = inst->cluster();
  shm::ShmPlatform::RegisterTypes(cluster);
  inst->storage = std::make_shared<TimedStateStorage>(inst->kv_storage.get(),
                                                      &cluster.tracer());
  cluster.RegisterStateStorage("default", inst->storage);
  shm::ShmPlatform::ApplyPaperPlacement(cluster);
  AODB_RETURN_NOT_OK(cluster.CheckWireRegistry());
  shm::ShmClientOptions client;
  client.durable_acks = spec.durable_acks;
  inst->platform = std::make_unique<shm::ShmPlatform>(&cluster, client);
  return Status::OK();
}

Status StatusOf(const Result<Status>& r) {
  return r.ok() ? r.value() : r.status();
}

/// Per-sensor signal sources, shared by prefill and the generator thread
/// (never at the same time).
class Signals {
 public:
  Signals(int sensors, uint64_t seed) {
    gens_.reserve(static_cast<size_t>(sensors));
    for (int s = 0; s < sensors; ++s) {
      gens_.emplace_back(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(s));
    }
  }
  /// `n` points ending at data time `ts_us`; the platform gives the first
  /// half to channel 0 and the second to channel 1.
  std::vector<shm::DataPoint> Packet(int sensor, Micros ts_us, int n) {
    return gens_[static_cast<size_t>(sensor)].Packet(ts_us, n, kPacketRateHz);
  }

 private:
  std::vector<SignalGenerator> gens_;
};

/// One packet per sensor that fills both channels' windows, ending just
/// before data time 0. Made once per run, outside the timed set-up.
std::vector<std::vector<shm::DataPoint>> PrefillPackets(
    const WorkloadSpec& spec, Signals* signals) {
  std::vector<std::vector<shm::DataPoint>> packets;
  packets.reserve(static_cast<size_t>(spec.sensors));
  for (int s = 0; s < spec.sensors; ++s) {
    packets.push_back(signals->Packet(s, -10 * kMicrosPerMilli,
                                      2 * spec.window_capacity));
  }
  return packets;
}

/// Set-up: cluster construction, topology, window prefill, and the optional
/// cold start.
Status SetUp(const WorkloadSpec& spec, bool traced,
             const std::string& dir,
             const std::vector<std::vector<shm::DataPoint>>& prefill,
             Instance* inst) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  AODB_RETURN_NOT_OK(StartCluster(spec, traced, dir, inst));
  shm::ShmTopology topo = Topology(spec);
  AODB_RETURN_NOT_OK(StatusOf(inst->platform->Setup(topo).Get()));
  // A bounded window keeps this thread blocking now and then, so the
  // scheduler can move it off a core a runtime thread keeps busy.
  // Shared with the callbacks: Get() can return before a callback ran.
  constexpr int kPrefillWindow = 32;
  auto window =
      std::make_shared<std::counting_semaphore<kPrefillWindow>>(kPrefillWindow);
  std::vector<Future<Status>> acks;
  acks.reserve(static_cast<size_t>(spec.sensors));
  for (int s = 0; s < spec.sensors; ++s) {
    window->acquire();
    acks.push_back(
        inst->platform->Insert(topo, s, prefill[static_cast<size_t>(s)]));
    acks.back().OnReady([window](Result<Status>&&) { window->release(); });
  }
  for (auto& f : acks) AODB_RETURN_NOT_OK(StatusOf(f.Get()));
  inst->resident_after_setup = inst->cluster().TotalActivations();
  if (spec.deactivate_after_setup) {
    AODB_RETURN_NOT_OK(StatusOf(inst->cluster().DeactivateAll().Get()));
  }
  return Status::OK();
}

// --- Traffic ------------------------------------------------------------------

/// One client operation and its outcome. The generator fills the request
/// fields and sent_ns; the completion callback fills done_ns and ok, then
/// publishes through Tracker::completed.
struct OpRecord {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  /// Data time of the operation: insert timestamps end here, raw ranges
  /// cover the second before it.
  Micros data_us = 0;
  std::vector<shm::DataPoint> points;  ///< Insert packet, made in advance.
  OpType type = OpType::kInsert;
  int32_t target = 0;  ///< Sensor (insert, raw) or organization (live).
  int8_t channel = 0;
  bool ok = false;
  bool sampled = false;
  bool measured = false;  ///< Open loop after warm-up.
};

/// Draws operation targets from the workload's key distribution.
class Picker {
 public:
  Picker(const WorkloadSpec& spec, Signals* signals)
      : spec_(spec),
        topo_(Topology(spec)),
        signals_(signals),
        orgs_(shm::ShmPlatform::NumOrgs(topo_)),
        zipf_(static_cast<uint64_t>(spec.sensors), 0.99) {
    if (spec.zipf) {
      // Scrambled ranks: popularity is unrelated to key order, so hot
      // sensors spread over organizations and directory stripes. Which
      // sensors are hot is part of the workload, the same for every seed.
      scramble_.resize(static_cast<size_t>(spec.sensors));
      std::iota(scramble_.begin(), scramble_.end(), 0);
      Rng rng(kClusterSeed ^ 0x5c7a3b1eULL);
      for (size_t i = scramble_.size(); i > 1; --i) {
        std::swap(scramble_[i - 1], scramble_[rng.NextBelow(i)]);
      }
    }
  }

  int Sensor(Rng* rng) {
    if (!spec_.zipf) return static_cast<int>(rng->NextBelow(spec_.sensors));
    return scramble_[zipf_.Next(rng)];
  }
  int Org(Rng* rng) {
    if (!spec_.zipf) return static_cast<int>(rng->NextBelow(orgs_));
    return shm::ShmPlatform::OrgOf(topo_, Sensor(rng));
  }
  void Fill(OpType type, Micros data_us, Rng* rng, OpRecord* rec) {
    rec->type = type;
    rec->data_us = data_us;
    if (type == OpType::kLive) {
      rec->target = Org(rng);
    } else {
      rec->target = Sensor(rng);
      if (type == OpType::kRaw) {
        rec->channel = static_cast<int8_t>(rng->NextBelow(2));
      } else {
        rec->points = signals_->Packet(rec->target, data_us, kPacketPoints);
      }
    }
  }

 private:
  const WorkloadSpec& spec_;
  const shm::ShmTopology topo_;
  Signals* const signals_;
  const int orgs_;
  ZipfGenerator zipf_;
  std::vector<int> scramble_;
};

/// Shared completion bookkeeping; outlives every callback (runs wait for
/// completed == issued before it is destroyed).
struct Tracker {
  explicit Tracker(int sensors)
      : acked(static_cast<size_t>(sensors)) {}
  std::atomic<int64_t> issued{0};
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> failed{0};
  std::vector<std::atomic<int32_t>> acked;  ///< Acked inserts per sensor.
  /// Closed loop: released by each completion.
  std::counting_semaphore<4096>* slots = nullptr;
};

/// Expected number of LiveData entries for `org`: every physical channel
/// plus the virtual channels.
size_t ExpectedLiveEntries(const shm::ShmTopology& t, int org) {
  int first = org * t.sensors_per_org;
  int last = std::min(t.sensors, first + t.sensors_per_org);
  size_t n = 0;
  for (int s = first; s < last; ++s) {
    n += static_cast<size_t>(t.channels_per_sensor);
    if (shm::ShmPlatform::HasVirtual(t, s)) ++n;
  }
  return n;
}

/// The benchmark's client: issues operations and records their outcomes.
class Client {
 public:
  Client(const WorkloadSpec& spec, Instance* inst, Tracker* tracker,
         uint64_t trace_base)
      : topo_(Topology(spec)),
        inst_(inst),
        tracker_(tracker),
        trace_base_(trace_base) {}

  /// Sends `rec`, the `index`-th operation of its loop, now: under its own
  /// sampled root when tracing is on and it is sampled, else under an
  /// unsampled marker so the client call does not draw a root.
  void Issue(OpRecord* rec, size_t index) {
    Tracer& tracer = inst_->cluster().tracer();
    TraceContext ctx;
    if (tracer.enabled()) {
      ctx.trace_id = rec->sampled ? trace_base_ + index : 1;
      ctx.sampled = rec->sampled;
      if (rec->sampled) ctx.span_id = tracer.NewSpanId();
    }
    ScopedTraceContext scope(ctx);
    tracker_->issued.fetch_add(1, std::memory_order_relaxed);
    rec->sent_ns = NowNs();
    Micros data_us = rec->data_us;
    Tracker* tracker = tracker_;
    switch (rec->type) {
      case OpType::kInsert: {
        int sensor = rec->target;
        inst_->platform
            ->Insert(topo_, sensor, std::move(rec->points))
            .OnReady([rec, tracker, sensor](Result<Status>&& r) {
              bool ok = StatusOf(r).ok();
              if (ok) tracker->acked[static_cast<size_t>(sensor)].fetch_add(1);
              Complete(tracker, rec, ok);
            });
        break;
      }
      case OpType::kLive: {
        size_t want = ExpectedLiveEntries(topo_, rec->target);
        inst_->platform->LiveData(topo_, rec->target)
            .OnReady([rec, tracker,
                      want](Result<std::vector<shm::LiveDataEntry>>&& r) {
              bool ok = r.ok() && r.value().size() == want;
              if (ok) {
                for (const auto& e : r.value()) ok = ok && e.has_data;
              }
              Complete(tracker, rec, ok);
            });
        break;
      }
      case OpType::kRaw: {
        Micros from = data_us - kRawSpanUs;
        Micros to = data_us;
        inst_->platform->RawRange(topo_, rec->target, rec->channel, from, to)
            .OnReady([rec, tracker, from, to](Result<shm::RangeReply>&& r) {
              bool ok = r.ok() && r.value().authorized;
              if (ok) {
                for (const auto& p : r.value().points) {
                  ok = ok && p.ts >= from && p.ts < to;
                }
              }
              Complete(tracker, rec, ok);
            });
        break;
      }
    }
  }

 private:
  static void Complete(Tracker* tracker, OpRecord* rec, bool ok) {
    rec->done_ns = NowNs();
    rec->ok = ok;
    if (!ok) tracker->failed.fetch_add(1, std::memory_order_relaxed);
    if (tracker->slots != nullptr) tracker->slots->release();
    tracker->completed.fetch_add(1, std::memory_order_release);
  }

  const shm::ShmTopology topo_;
  Instance* inst_;
  Tracker* tracker_;
  const uint64_t trace_base_;
};

bool WaitForDrain(const Tracker& tracker) {
  int64_t deadline = NowNs() + kDrainTimeoutNs;
  while (tracker.completed.load(std::memory_order_acquire) <
         tracker.issued.load(std::memory_order_relaxed)) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Poisson arrivals at the workload's total rate with the operation type
/// drawn per arrival; `seconds` of schedule, due times relative to the
/// phase start.
std::vector<OpRecord> OpenLoopSchedule(const WorkloadSpec& spec, double scale,
                                       double seconds, Rng* rng,
                                       Picker* picker) {
  double rates[kNumOpTypes] = {spec.insert_rate * scale,
                               spec.live_rate * scale, spec.raw_rate * scale};
  double total = rates[0] + rates[1] + rates[2];
  std::vector<OpRecord> ops;
  ops.reserve(static_cast<size_t>(total * seconds * 1.05) + 16);
  double t_s = 0;
  for (;;) {
    t_s += rng->Exponential(1.0 / total);
    if (t_s >= seconds) break;
    double u = rng->NextDouble() * total;
    OpType type = u < rates[0]                ? OpType::kInsert
                  : u < rates[0] + rates[1]   ? OpType::kLive
                                              : OpType::kRaw;
    OpRecord rec;
    rec.due_ns = static_cast<int64_t>(t_s * 1e9);
    picker->Fill(type, rec.due_ns / 1000, rng, &rec);
    ops.push_back(std::move(rec));
  }
  return ops;
}

/// Storage call durations (ns) gathered across the instances of a run.
struct StorageSamples {
  std::vector<int64_t> write_ns;
  std::vector<int64_t> read_ns;

  void Take(const TimedStateStorage& s) {
    for (int64_t v : s.WriteNs()) write_ns.push_back(v);
    for (int64_t v : s.ReadNs()) read_ns.push_back(v);
  }
};

/// What the measured instances of a run observed, pooled.
struct Pool {
  std::vector<double> latency_us[kNumOpTypes];  ///< Open loop, measured.
  std::vector<double> insert_p99_segments_us;   ///< p99 of each segment.
  std::vector<double> late_us;                  ///< Generator lateness.
  int64_t ops = 0;
  double cpu_s = 0;
  double wall_s = 0;
  int64_t backlog_end = 0;
  MetricsSnapshot delta;  ///< Registry deltas over the open loops.
  double busy_us = 0;
  double tasks = 0;
  double parks = 0;
  int64_t kv_appended = 0;
  int64_t compactions = 0;
  int64_t storage_writes = 0;
  int64_t storage_write_bytes = 0;
  int64_t acked_inserts = 0;
  int64_t directory_entries = 0;
  std::vector<double> heap_mb;
  int64_t closed_good = 0;
  double closed_s = 0;
  size_t resident_after_setup = 0;
  size_t resident_end = 0;
  StorageSamples storage;
  std::vector<RootSpan> roots;
  std::unordered_map<uint64_t, std::vector<SpanRecord>> spans;
};

/// Sampling period for one operation type of a traced open loop.
int64_t SampleEvery(double rate, double seconds, double target) {
  return std::max<int64_t>(1, static_cast<int64_t>(rate * seconds / target));
}

/// Runs warm-up then the measured open loop from the generator thread and
/// adds the interval's counters to `pool`; the calling thread takes the
/// snapshots at the warm-up boundary and after the drain, so the generator
/// never stalls on them. The schedule, packets included, is made before the
/// phase starts at `*start_ns`.
bool RunOpenLoop(const WorkloadSpec& spec, double scale, double warmup_s,
                 double open_s, Instance* inst, Client* client,
                 Tracker* tracker, Rng* rng, Picker* picker,
                 std::vector<OpRecord>* ops_out, int64_t* start_ns_out,
                 Pool* pool) {
  std::vector<OpRecord>& ops = *ops_out;
  ops = OpenLoopSchedule(spec, scale, warmup_s + open_s, rng, picker);
  const int64_t start_ns = NowNs() + 2000000;
  *start_ns_out = start_ns;
  const int64_t warm_ns = static_cast<int64_t>(warmup_s * 1e9);
  bool traced = inst->cluster().tracer().enabled();
  int64_t every[kNumOpTypes] = {
      SampleEvery(spec.insert_rate * scale, open_s, kTargetTracedInserts),
      SampleEvery(spec.live_rate * scale, open_s, kTargetTracedQueries),
      SampleEvery(spec.raw_rate * scale, open_s, kTargetTracedQueries)};
  int64_t seen[kNumOpTypes] = {0, 0, 0};
  for (OpRecord& op : ops) {
    op.measured = op.due_ns >= warm_ns;
    if (op.measured) {
      int t = static_cast<int>(op.type);
      op.sampled = traced && (seen[t]++ % every[t] == 0);
    }
    op.due_ns += start_ns;
  }
  std::atomic<int64_t> backlog{0};
  std::thread generator([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    for (size_t i = 0; i < ops.size(); ++i) {
      SleepUntilNs(ops[i].due_ns);
      client->Issue(&ops[i], i);
    }
    backlog.store(tracker->issued.load() - tracker->completed.load());
  });
  SleepUntilNs(start_ns + warm_ns);
  Cluster& cluster = inst->cluster();
  auto acked = [tracker] {
    int64_t n = 0;
    for (const auto& a : tracker->acked) n += a.load();
    return n;
  };
  auto executors = [&cluster] {
    ExecutorStats sum;
    for (int i = 0; i < kNumSilos; ++i) {
      ExecutorStats s = cluster.ExecutorFor(i)->Stats();
      sum.busy_us += s.busy_us;
      sum.tasks_run += s.tasks_run;
      sum.parks += s.parks;
    }
    return sum;
  };
  inst->storage->SetRecording(true);
  const MetricsSnapshot before = cluster.SnapshotMetrics();
  const ExecutorStats exec0 = executors();
  const int64_t kv_bytes0 = inst->kv->BytesAppended();
  const int64_t compactions0 = inst->kv->Compactions();
  const int64_t writes0 = inst->storage->writes();
  const int64_t write_bytes0 = inst->storage->write_bytes();
  const int64_t acked0 = acked();
  const double cpu0 = CpuSeconds();
  const int64_t wall0 = NowNs();
  generator.join();
  bool drained = WaitForDrain(*tracker);
  inst->storage->SetRecording(false);
  pool->storage.Take(*inst->storage);
  pool->cpu_s += CpuSeconds() - cpu0;
  pool->wall_s += static_cast<double>(NowNs() - wall0) / 1e9;
  pool->backlog_end = std::max(pool->backlog_end, backlog.load());
  struct mallinfo2 mi = mallinfo2();
  pool->heap_mb.push_back(static_cast<double>(mi.uordblks + mi.hblkhd) /
                          (1024.0 * 1024.0));
  MetricsSnapshot now = cluster.SnapshotMetrics();
  pool->delta.Merge(now.Delta(before));
  const ExecutorStats exec1 = executors();
  pool->busy_us += static_cast<double>(exec1.busy_us - exec0.busy_us);
  pool->tasks += static_cast<double>(exec1.tasks_run - exec0.tasks_run);
  pool->parks += static_cast<double>(exec1.parks - exec0.parks);
  pool->kv_appended += inst->kv->BytesAppended() - kv_bytes0;
  pool->compactions += inst->kv->Compactions() - compactions0;
  pool->storage_writes += inst->storage->writes() - writes0;
  pool->storage_write_bytes += inst->storage->write_bytes() - write_bytes0;
  pool->acked_inserts += acked() - acked0;
  int64_t entries = 0;
  for (const auto& [name, v] : now.gauges) {
    if (name.rfind("directory.partition.", 0) == 0 &&
        name.size() > 8 && name.compare(name.size() - 8, 8, ".entries") == 0) {
      entries += v;
    }
  }
  pool->directory_entries = std::max(pool->directory_entries, entries);
  for (const OpRecord& op : ops) pool->ops += op.measured ? 1 : 0;
  return drained;
}

/// Closed loop: `outstanding` operations of the capacity type in flight;
/// after a ramp, counts those completed within the latency limit.
struct ClosedLoopResult {
  /// Operations completed within the latency limit in the measured window.
  int64_t completed_in_window = 0;
  double window_s = 0;
};

bool RunClosedLoop(const WorkloadSpec& spec, double ramp_s, double closed_s,
                   int64_t data_origin_ns, Client* client, Tracker* tracker,
                   Rng* rng, Picker* picker, ClosedLoopResult* res) {
  std::counting_semaphore<4096> slots(spec.capacity_outstanding);
  tracker->slots = &slots;
  std::deque<OpRecord> ops;
  int64_t t0 = NowNs();
  int64_t w0 = t0 + static_cast<int64_t>(ramp_s * 1e9);
  int64_t w1 = w0 + static_cast<int64_t>(closed_s * 1e9);
  while (NowNs() < w1) {
    if (!slots.try_acquire_for(std::chrono::milliseconds(50))) continue;
    ops.emplace_back();
    OpRecord* rec = &ops.back();
    picker->Fill(spec.capacity_op, (NowNs() - data_origin_ns) / 1000, rng,
                 rec);
    rec->due_ns = NowNs();
    client->Issue(rec, 0);
  }
  bool drained = WaitForDrain(*tracker);
  tracker->slots = nullptr;
  res->window_s = closed_s;
  for (const OpRecord& op : ops) {
    if (op.ok && op.done_ns >= w0 && op.done_ns < w1 &&
        static_cast<double>(op.done_ns - op.due_ns) / 1000.0 <=
            spec.capacity_limit_us) {
      ++res->completed_in_window;
    }
  }
  return drained;
}

// --- Correctness gates -------------------------------------------------------

/// Every physical channel's TotalPoints, read through freshly activated
/// actors (so from storage), against the points its sensor had acked.
/// Durable acks promise at least that many; otherwise exactly.
Status CheckChannelTotals(const WorkloadSpec& spec, Instance* inst,
                          const Tracker& tracker, bool at_least) {
  Cluster& cluster = inst->cluster();
  const int64_t prefill = spec.window_capacity;
  std::vector<Future<int64_t>> totals;
  totals.reserve(static_cast<size_t>(spec.sensors) * 2);
  for (int s = 0; s < spec.sensors; ++s) {
    for (int c = 0; c < 2; ++c) {
      totals.push_back(cluster
                           .Ref<shm::PhysicalChannelActor>(
                               shm::ShmPlatform::ChannelKey(s, c))
                           .Call(&shm::PhysicalChannelActor::TotalPoints));
    }
  }
  int64_t bad = 0;
  std::string first_bad;
  for (int s = 0; s < spec.sensors; ++s) {
    int64_t want =
        prefill + int64_t{kPacketPoints / 2} *
                      tracker.acked[static_cast<size_t>(s)].load();
    for (int c = 0; c < 2; ++c) {
      Result<int64_t> got = totals[static_cast<size_t>(2 * s + c)].Get();
      bool ok = got.ok() && (at_least ? got.value() >= want
                                      : got.value() == want);
      if (!ok) {
        if (bad++ == 0) {
          first_bad = shm::ShmPlatform::ChannelKey(s, c) + " has " +
                      (got.ok() ? std::to_string(got.value())
                                : got.status().ToString()) +
                      " points, acked " + std::to_string(want);
        }
      }
    }
  }
  if (bad > 0) {
    return Status::Corruption(std::to_string(bad) +
                              " channels lost points; first: " + first_bad);
  }
  return Status::OK();
}

/// Stops the instance and checks the runtime's own leak and lane counters.
Status StopAndCheckCounters(Instance* inst) {
  inst->Stop();
  MetricsSnapshot snap = inst->cluster().SnapshotMetrics();
  auto gauge = [&](const std::string& n) {
    auto it = snap.gauges.find(n);
    return it == snap.gauges.end() ? int64_t{0} : it->second;
  };
  auto counter = [&](const std::string& n) {
    auto it = snap.counters.find(n);
    return it == snap.counters.end() ? int64_t{0} : it->second;
  };
  if (gauge("runtime.leaked_promises") != 0) {
    return Status::Internal("runtime.leaked_promises = " +
                            std::to_string(gauge("runtime.leaked_promises")));
  }
  if (counter("wire.closure_fallbacks") != 0) {
    return Status::Internal("wire.closure_fallbacks = " +
                            std::to_string(counter("wire.closure_fallbacks")));
  }
  return Status::OK();
}

/// Non-durable workloads: flush every activation, then read every channel
/// back through a fresh activation. Durable: stop without flushing, reopen
/// the store in a new cluster, and read back what the acks promised.
/// Either way the instance ends stopped.
Status VerifyOutputs(const WorkloadSpec& spec, Instance* inst,
                     const Tracker& tracker) {
  if (!spec.durable_acks) {
    Status st = StatusOf(inst->cluster().DeactivateAll().Get());
    if (st.ok()) st = CheckChannelTotals(spec, inst, tracker, false);
    Status counters = StopAndCheckCounters(inst);
    return st.ok() ? counters : st;
  }
  AODB_RETURN_NOT_OK(StopAndCheckCounters(inst));
  std::string dir = inst->kv_dir;
  inst->TearDown();
  AODB_RETURN_NOT_OK(StartCluster(spec, false, dir, inst));
  Status st = CheckChannelTotals(spec, inst, tracker, true);
  inst->Stop();
  return st;
}

// --- Metric assembly ------------------------------------------------------------

const char* const kActorTypes[] = {"shm.Sensor", "shm.Channel",
                                   "shm.VirtualChannel", "shm.Aggregator",
                                   "shm.Organization"};

/// Latencies (us) of measured operations of `type`, grouped by the segment
/// (`segment_ns` long, from `t0_ns`) their scheduled send time falls in.
std::vector<std::vector<double>> SegmentLatenciesUs(
    const std::vector<OpRecord>& ops, OpType type, int64_t t0_ns,
    int64_t segment_ns, size_t segments) {
  std::vector<std::vector<double>> seg(segments);
  for (const OpRecord& op : ops) {
    if (!op.measured || op.type != type || op.due_ns < t0_ns) continue;
    size_t k = static_cast<size_t>((op.due_ns - t0_ns) / segment_ns);
    if (k < segments) {
      seg[k].push_back(static_cast<double>(op.done_ns - op.due_ns) / 1000.0);
    }
  }
  return seg;
}

int64_t CounterOf(const MetricsSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

const Histogram* HistogramOf(const MetricsSnapshot& s,
                             const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? nullptr : &it->second;
}

/// Mean of the slowest 1% of a registry histogram (whole-microsecond
/// buckets), from its percentile curve.
double TailMeanUs(const Histogram& h) {
  if (h.count() == 0) return 0;
  double sum = 0;
  for (int k = 0; k < 100; ++k) {
    sum += static_cast<double>(h.Percentile(99.0 + 0.01 * k));
  }
  return sum / 100.0;
}

std::vector<double> NsToUs(const std::vector<int64_t>& ns) {
  std::vector<double> us;
  us.reserve(ns.size());
  for (int64_t v : ns) us.push_back(static_cast<double>(v) / 1000.0);
  return us;
}

struct CodecCost {
  double encode_ns_per_kb = 0;
  double decode_ns_per_kb = 0;
  /// Encode plus decode of one Insert request frame.
  double insert_request_us = 0;
};

/// The wire codec timed on this workload's own request frames, an Insert
/// packet and a Range query, each encoded and decoded in a loop.
CodecCost WireCodecCost(Signals* signals) {
  WireRequest insert;
  insert.target = ActorId{shm::SensorActor::kTypeName, "s0"};
  insert.principal = Principal{"org-0", "user"};
  insert.method_id = 1;
  BufWriter args;
  WireEncodeTuple(&args, std::make_tuple(signals->Packet(0, 0, kPacketPoints)));
  insert.args = args.Release();
  WireRequest range = insert;
  range.target = ActorId{shm::PhysicalChannelActor::kTypeName, "s0.c0"};
  BufWriter range_args;
  WireEncodeTuple(&range_args, std::make_tuple(Micros{0}, kRawSpanUs));
  range.args = range_args.Release();
  constexpr int kIters = 20000;
  double enc_ns = 0, dec_ns = 0, kb = 0;
  CodecCost cost;
  for (const WireRequest* req : {&insert, &range}) {
    std::string frame;
    int64_t t0 = NowNs();
    for (int i = 0; i < kIters; ++i) frame = WireEncodeRequest(*req);
    int64_t t1 = NowNs();
    WireRequest out;
    for (int i = 0; i < kIters; ++i) {
      if (!WireDecodeRequest(frame, &out).ok()) Die("wire decode failed");
    }
    int64_t t2 = NowNs();
    enc_ns += static_cast<double>(t1 - t0);
    dec_ns += static_cast<double>(t2 - t1);
    kb += static_cast<double>(frame.size()) * kIters / 1024.0;
    if (req == &insert) {
      cost.insert_request_us = static_cast<double>(t2 - t0) / kIters / 1000.0;
    }
  }
  cost.encode_ns_per_kb = enc_ns / kb;
  cost.decode_ns_per_kb = dec_ns / kb;
  return cost;
}

/// Spans of the sampled roots, from the tracer's rings.
std::unordered_map<uint64_t, std::vector<SpanRecord>> SpansOf(
    Tracer& tracer, const std::unordered_set<uint64_t>& wanted) {
  std::unordered_map<uint64_t, std::vector<SpanRecord>> out;
  for (SpanRecord& s : tracer.Collect()) {
    if (wanted.count(s.trace_id) > 0) out[s.trace_id].push_back(std::move(s));
  }
  return out;
}

std::vector<RootSpan> RootsOf(const std::vector<OpRecord>& ops,
                              uint64_t trace_base) {
  std::vector<RootSpan> roots;
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    if (!op.sampled || !op.ok) continue;
    RootSpan r;
    r.trace_id = trace_base + i;
    r.type = op.type;
    r.due_us = static_cast<double>(op.due_ns) / 1000.0;
    r.sent_us = static_cast<double>(op.sent_ns) / 1000.0;
    r.done_us = static_cast<double>(op.done_ns) / 1000.0;
    roots.push_back(r);
  }
  return roots;
}

void WriteSpanDump(const std::string& path, const std::vector<RootSpan>& roots,
                   const std::unordered_map<uint64_t, std::vector<SpanRecord>>&
                       spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"roots\": [\n");
  for (size_t i = 0; i < roots.size(); ++i) {
    const RootSpan& r = roots[i];
    std::fprintf(f,
                 "%s{\"trace_id\": %llu, \"op\": \"%s\", \"due_us\": %.3f, "
                 "\"sent_us\": %.3f, \"done_us\": %.3f, \"spans\": [",
                 i > 0 ? ",\n" : "", static_cast<unsigned long long>(r.trace_id),
                 OpName(r.type), r.due_us, r.sent_us, r.done_us);
    auto it = spans.find(r.trace_id);
    if (it != spans.end()) {
      for (size_t j = 0; j < it->second.size(); ++j) {
        const SpanRecord& s = it->second[j];
        std::fprintf(f,
                     "%s{\"kind\": \"%s\", \"name\": \"%s\", \"actor\": "
                     "\"%s\", \"silo\": %d, \"start_us\": %lld, \"end_us\": "
                     "%lld, \"queue_wait_us\": %lld}",
                     j > 0 ? ", " : "", JsonEscape(s.kind).c_str(),
                     JsonEscape(s.name).c_str(), JsonEscape(s.actor).c_str(),
                     static_cast<int>(s.silo),
                     static_cast<long long>(s.start_us),
                     static_cast<long long>(s.end_us),
                     static_cast<long long>(s.queue_wait_us));
      }
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

/// Simulator cost constants next to the measured cost they stand for: the
/// mean turn time of the matching actor on the reply path of sampled roots.
void PrintCalibration(
    const std::string& workload, const std::vector<RootSpan>& roots,
    const std::unordered_map<uint64_t, std::vector<SpanRecord>>& spans,
    double codec_us_per_request) {
  std::map<std::pair<int, std::string>, std::pair<double, int64_t>> turn;
  for (const RootSpan& r : roots) {
    auto it = spans.find(r.trace_id);
    if (it == spans.end()) continue;
    for (const SpanRecord& s : it->second) {
      if (s.kind != "turn" || !OnReplyPath(s)) continue;
      std::string type = s.actor.substr(0, s.actor.find('/'));
      auto& acc = turn[{static_cast<int>(r.type), type}];
      acc.first += static_cast<double>(s.end_us - s.start_us);
      acc.second += 1;
    }
  }
  auto mean = [&](OpType op, const std::string& type) {
    auto it = turn.find({static_cast<int>(op), type});
    return it == turn.end() || it->second.second == 0
               ? 0.0
               : it->second.first / static_cast<double>(it->second.second);
  };
  struct Row {
    const char* constant;
    double sim_us;
    double measured_us;
  };
  const Row rows[] = {
      {"kCostSensorInsert", static_cast<double>(shm::kCostSensorInsert),
       mean(OpType::kInsert, "shm.Sensor")},
      {"kCostChannelAppend", static_cast<double>(shm::kCostChannelAppend),
       mean(OpType::kInsert, "shm.Channel")},
      {"kCostOrgLiveFanout", static_cast<double>(shm::kCostOrgLiveFanout),
       mean(OpType::kLive, "shm.Organization")},
      {"kCostChannelRange", static_cast<double>(shm::kCostChannelRange),
       mean(OpType::kRaw, "shm.Channel")},
      {"serialization_cost_us",
       static_cast<double>(NetworkOptions{}.serialization_cost_us),
       codec_us_per_request},
  };
  std::printf("%s calib constant sim_us measured_us sim/measured\n",
              workload.c_str());
  for (const Row& row : rows) {
    std::printf("%s calib %s %.1f %.3f %.1f\n", workload.c_str(), row.constant,
                row.sim_us, row.measured_us,
                row.measured_us > 0 ? row.sim_us / row.measured_us : 0.0);
  }
}

// --- One run -------------------------------------------------------------------

/// Seconds of each phase. Each instance of a run measures a share of the
/// open and closed loops, so a run's numbers pool several clusters (thread
/// placement) and several stretches of the host's time.
struct Phases {
  double warmup_s;   ///< Per instance, before its open loop.
  double open_s;     ///< Open loop, summed over the measured instances.
  double ramp_s;     ///< Per instance, before its closed-loop window.
  double closed_s;   ///< Closed-loop window, summed over the instances.
  double rate_scale;
  int instances;
};

Phases PhasesFor(const Args& args) {
  if (args.smoke) return {0.5, 2.0, 0.2, 1.0, 0.1, 1};
  return {1.0, args.seconds * 2.0 / 3.0, 0.3, args.seconds / 3.0, 1.0,
          kInstances};
}

/// Runs one set-up instance through warm-up, its share of the open and
/// closed loops, and the output checks; adds what it saw to `pool`. Root
/// trace ids are offset by `trace_base` so instances never share one.
Status MeasureInstance(const WorkloadSpec& spec, const Phases& ph,
                       uint64_t trace_base, Instance* inst, Rng* rng,
                       Picker* picker, Pool* pool, int64_t* attempted,
                       int64_t* failed) {
  const double open_s = ph.open_s / ph.instances;
  Cluster& cluster = inst->cluster();
  Tracker tracker(spec.sensors);
  Client client(spec, inst, &tracker, trace_base);

  std::vector<OpRecord> ops;
  int64_t start_ns = 0;
  if (!RunOpenLoop(spec, ph.rate_scale, ph.warmup_s, open_s, inst, &client,
                   &tracker, rng, picker, &ops, &start_ns, pool)) {
    Die("open loop did not drain");
  }
  const int64_t measure_ns =
      start_ns + static_cast<int64_t>(ph.warmup_s * 1e9);
  std::vector<RootSpan> roots = RootsOf(ops, trace_base);
  std::unordered_set<uint64_t> wanted;
  for (const RootSpan& r : roots) wanted.insert(r.trace_id);
  for (auto& [id, spans] : SpansOf(cluster.tracer(), wanted)) {
    pool->spans[id] = std::move(spans);
  }
  pool->roots.insert(pool->roots.end(), roots.begin(), roots.end());

  ClosedLoopResult closed;
  if (!RunClosedLoop(spec, ph.ramp_s, ph.closed_s / ph.instances, start_ns,
                     &client, &tracker, rng, picker, &closed)) {
    Die("closed loop did not drain");
  }
  pool->resident_end = std::max(pool->resident_end, cluster.TotalActivations());
  *attempted += tracker.issued.load();
  *failed += tracker.failed.load();

  // Pool the open loop.
  for (const OpRecord& op : ops) {
    if (!op.measured) continue;
    pool->latency_us[static_cast<int>(op.type)].push_back(
        static_cast<double>(op.done_ns - op.due_ns) / 1000.0);
    pool->late_us.push_back(static_cast<double>(op.sent_ns - op.due_ns) /
                            1000.0);
  }
  // The tail is taken per segment of about a second, and the run reports
  // the median segment: one stalled second moves it by one rank at most.
  const int segments = std::max(1, static_cast<int>(open_s));
  for (auto& seg : SegmentLatenciesUs(ops, OpType::kInsert, measure_ns,
                                      static_cast<int64_t>(open_s * 1e9 / segments),
                                      static_cast<size_t>(segments))) {
    if (!seg.empty()) {
      pool->insert_p99_segments_us.push_back(Percentile(seg, 99));
    }
  }
  pool->closed_good += closed.completed_in_window;
  pool->closed_s += closed.window_s;
  pool->resident_after_setup =
      std::max(pool->resident_after_setup, inst->resident_after_setup);
  return VerifyOutputs(spec, inst, tracker);
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const Phases ph = PhasesFor(args);
  const std::string results_dir = args.work_dir + "/results";
  std::error_code ec;
  fs::create_directories(results_dir, ec);
  const std::string kv_root = args.work_dir + "/kv/" + spec.name + "-" +
                              std::to_string(getpid());
  Rng rng(args.seed * 0x2545f4914f6cdd1dULL + 17);
  Signals signals(spec.sensors, args.seed);
  Picker picker(spec, &signals);
  const auto prefill = PrefillPackets(spec, &signals);

  // Each instance: timed set-up, then its share of the measured phases. In
  // a traced run the first instance runs untraced, as the baseline of the
  // tracing overhead, and the others are traced.
  std::vector<double> setup_s;
  Pool pool;
  Pool untraced;
  int64_t attempted = 0, failed = 0;
  std::string why;
  for (int i = 0; i < ph.instances; ++i) {
    const bool traced = args.trace && (i > 0 || ph.instances == 1);
    Instance inst;
    int64_t t0 = NowNs();
    Status st = SetUp(spec, traced, kv_root + "-" + std::to_string(i), prefill,
                      &inst);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!st.ok()) Die("set-up failed: " + st.ToString());
    Pool* into = args.trace && !traced ? &untraced : &pool;
    st = MeasureInstance(spec, ph, kRootTraceBase * static_cast<uint64_t>(i + 1),
                         &inst, &rng, &picker, into, &attempted, &failed);
    if (!st.ok() && why.empty()) why = st.ToString();
    inst.TearDown();
    fs::remove_all(inst.kv_dir, ec);
    // Hand the instance's memory back before the next one is built.
    malloc_trim(0);
  }
  if (failed > 0 && why.empty()) {
    why = std::to_string(failed) + " operations failed";
  }
  const bool correct = why.empty();

  // End-to-end metrics.
  const double ops_n = static_cast<double>(std::max<int64_t>(1, pool.ops));
  const double cpu_us_per_op = pool.cpu_s * 1e6 / ops_n;
  const auto& insert_lat = pool.latency_us[static_cast<int>(OpType::kInsert)];
  const double insert_p50 = Median(insert_lat);
  MetricList e2e;
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("insert_p50_us", insert_p50, "us");
  e2e.Add("live_p50_us",
          Median(pool.latency_us[static_cast<int>(OpType::kLive)]), "us");
  e2e.Add("raw_p50_us",
          Median(pool.latency_us[static_cast<int>(OpType::kRaw)]), "us");
  e2e.Add("capacity_ops_per_s",
          static_cast<double>(pool.closed_good) / std::max(1e-9, pool.closed_s),
          "1/s");
  e2e.Add("cpu_us_per_op", cpu_us_per_op, "us");
  e2e.Add("mem_in_use_mb", Median(pool.heap_mb), "MB");

  // Diagnostics: not gated, printed for reading a run.
  MetricList dg;
  // The insert tail is printed but not gated: on ingest_mix and query_fanout
  // it spreads by 25-50% between runs (README, "End-to-end metrics").
  dg.Add("diag.insert_p99_us", Median(pool.insert_p99_segments_us), "us");
  for (OpType t : {OpType::kInsert, OpType::kLive, OpType::kRaw}) {
    const auto& lat = pool.latency_us[static_cast<int>(t)];
    std::string p = std::string("diag.") + OpName(t);
    dg.Add(p + "_count", static_cast<double>(lat.size()), "count");
    dg.Add(p + "_p99_all_us", Percentile(lat, 99), "us");
    dg.Add(p + "_p999_all_us", Percentile(lat, 99.9), "us");
    dg.Add(p + "_max_us",
           lat.empty() ? 0 : *std::max_element(lat.begin(), lat.end()), "us");
  }
  dg.Add("diag.closed_completed", static_cast<double>(pool.closed_good),
         "count");
  dg.Add("diag.rss_peak_mb", PeakRssMb(), "MB");
  for (size_t i = 0; i < setup_s.size(); ++i) {
    dg.Add("diag.setup_" + std::to_string(i) + "_s", setup_s[i], "s");
  }

  // Per-layer metrics, over the open loops unless noted.
  MetricList pl;
  const MetricsSnapshot& d = pool.delta;
  pl.Add("actor.executor.busy_frac",
         pool.busy_us / (pool.wall_s * 1e6 * kNumSilos * kWorkersPerSilo),
         "ratio");
  pl.Add("actor.executor.tasks_per_op", pool.tasks / ops_n, "count");
  pl.Add("actor.executor.parks_per_op", pool.parks / ops_n, "count");
  for (const char* type : kActorTypes) {
    const Histogram* wait =
        HistogramOf(d, std::string("turn.queue_wait_us.") + type);
    const Histogram* exec = HistogramOf(d, std::string("turn.exec_us.") + type);
    pl.Add(std::string("actor.mailbox.wait_mean_us.") + type,
           wait ? wait->Mean() : 0, "us");
    pl.Add(std::string("actor.mailbox.wait_tail_mean_us.") + type,
           wait ? TailMeanUs(*wait) : 0, "us");
    pl.Add(std::string("shm.turn_exec_mean_us.") + type,
           exec ? exec->Mean() : 0, "us");
    pl.Add(std::string("shm.turns_per_op.") + type,
           exec ? static_cast<double>(exec->count()) / ops_n : 0, "count");
  }
  const CodecCost codec = WireCodecCost(&signals);
  pl.Add("actor.wire.requests_per_op",
         static_cast<double>(CounterOf(d, "wire.requests")) / ops_n, "count");
  pl.Add("actor.wire.bytes_per_op",
         static_cast<double>(CounterOf(d, "wire.request_bytes") +
                             CounterOf(d, "wire.reply_bytes")) / ops_n,
         "B");
  pl.Add("actor.wire.local_sends_per_op",
         static_cast<double>(CounterOf(d, "wire.local_closure_sends")) / ops_n,
         "count");
  pl.Add("actor.wire.encode_ns_per_kb", codec.encode_ns_per_kb, "ns/KB");
  pl.Add("actor.wire.decode_ns_per_kb", codec.decode_ns_per_kb, "ns/KB");
  int64_t contention = 0;
  for (const auto& [name, v] : d.counters) {
    if (name.rfind("directory.partition.", 0) == 0) contention += v;
  }
  pl.Add("actor.directory.entries", static_cast<double>(pool.directory_entries),
         "count");
  pl.Add("actor.directory.contention_per_kop",
         static_cast<double>(contention) * 1000.0 / ops_n, "count");
  pl.Add("actor.paging.faults_per_op",
         static_cast<double>(CounterOf(d, "activation.fault.count")) / ops_n,
         "count");
  pl.Add("actor.paging.pageouts_per_op",
         static_cast<double>(CounterOf(d, "activation.paged_out")) / ops_n,
         "count");
  // Fault-in timings: the activation's state load, and the faulting
  // message's wait from enqueue to its first turn.
  const std::pair<const char*, const char*> kFaultTimings[] = {
      {"fault_load", "activation.fault.load_us"},
      {"fault_wait", "activation.fault.queue_wait_us"}};
  for (const auto& [metric, histogram] : kFaultTimings) {
    const Histogram* h = HistogramOf(d, histogram);
    pl.Add(std::string("actor.paging.") + metric + "_mean_us",
           h ? h->Mean() : 0, "us");
    pl.Add(std::string("actor.paging.") + metric + "_tail_mean_us",
           h ? TailMeanUs(*h) : 0, "us");
  }
  pl.Add("actor.paging.resident_after_setup",
         static_cast<double>(pool.resident_after_setup), "count");
  pl.Add("actor.paging.resident_end", static_cast<double>(pool.resident_end),
         "count");
  std::vector<double> wr = NsToUs(pool.storage.write_ns);
  std::vector<double> rd = NsToUs(pool.storage.read_ns);
  pl.Add("storage.write_p50_us", Percentile(wr, 50), "us");
  pl.Add("storage.write_p99_us", Percentile(wr, 99), "us");
  pl.Add("storage.write_max_us",
         wr.empty() ? 0 : *std::max_element(wr.begin(), wr.end()), "us");
  pl.Add("storage.read_p50_us", Percentile(rd, 50), "us");
  pl.Add("storage.read_p99_us", Percentile(rd, 99), "us");
  pl.Add("storage.writes_per_op",
         static_cast<double>(pool.storage_writes) / ops_n, "count");
  pl.Add("storage.write_bytes_per_op",
         static_cast<double>(pool.storage_write_bytes) / ops_n, "B");
  pl.Add("storage.kv_bytes_appended_per_op",
         static_cast<double>(pool.kv_appended) / ops_n, "B");
  pl.Add("storage.compactions", static_cast<double>(pool.compactions),
         "count");
  const double payload = static_cast<double>(pool.acked_inserts) *
                         kPacketPoints * shm::kBytesPerPoint;
  pl.Add("storage.write_amp",
         payload > 0 ? static_cast<double>(pool.kv_appended) / payload : 0,
         "ratio");
  pl.Add("loadgen.late_p99_us", Percentile(pool.late_us, 99), "us");
  pl.Add("loadgen.backlog_end", static_cast<double>(pool.backlog_end),
         "count");

  // Latency budget of the sampled roots, and what tracing cost.
  auto budgets = ComputeBudgets(pool.roots, pool.spans);
  for (OpType t : {OpType::kInsert, OpType::kLive}) {
    const Budget& b = budgets[static_cast<int>(t)];
    std::string p = std::string("budget.") + OpName(t);
    double n = static_cast<double>(std::max<int64_t>(1, b.traces));
    pl.Add(p + ".total_mean_us", b.total_us / n, "us");
    for (int l = 0; l < kNumLayers; ++l) {
      // Live queries write nothing, and activation loads run outside the
      // request's trace context, so their storage share is always 0.
      if (t == OpType::kLive && l == kStorage) continue;
      pl.Add(p + "." + LayerName(l) + "_frac",
             b.total_us > 0 ? b.layer_us[static_cast<size_t>(l)] / b.total_us
                            : 0,
             "ratio");
    }
    dg.Add("diag." + p + ".traces", static_cast<double>(b.traces), "count");
  }
  // Roots the tracer started by itself: sends inside turns of unsampled
  // requests each draw a new root.
  dg.Add("diag.trace.tracer_roots_per_op",
         static_cast<double>(CounterOf(d, "trace.traces_started")) / ops_n,
         "count");
  const double base_p50 =
      Median(untraced.latency_us[static_cast<int>(OpType::kInsert)]);
  const double base_cpu =
      untraced.cpu_s * 1e6 /
      static_cast<double>(std::max<int64_t>(1, untraced.ops));
  pl.Add("trace.overhead_frac",
         base_p50 > 0 ? insert_p50 / base_p50 - 1 : 0, "ratio");
  pl.Add("trace.cpu_overhead_frac",
         untraced.ops > 0 ? cpu_us_per_op / base_cpu - 1 : 0, "ratio");

  const std::string tag = spec.name + "-seed" + std::to_string(args.seed) +
                          "-trace" + (args.trace ? "1" : "0");
  if (args.trace) {
    WriteSpanDump(results_dir + "/" + tag + "-spans.json", pool.roots,
                  pool.spans);
  }
  if (args.calibrate) {
    PrintCalibration(spec.name, pool.roots, pool.spans,
                     codec.insert_request_us);
  }

  // Print: the selected metric set, then diagnostics, then the JSON line.
  std::vector<Metric> selected;
  if (args.smoke) {
    selected = e2e.items();
    selected.insert(selected.end(), pl.items().begin(), pl.items().end());
  } else {
    selected = args.trace ? pl.items() : e2e.items();
  }
  std::vector<Metric> printed = selected;
  printed.insert(printed.end(), dg.items().begin(), dg.items().end());
  for (const Metric& m : printed) {
    std::printf("%s %s %s %s\n", spec.name.c_str(), m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  if (!correct) {
    std::printf("%s CHECK FAILED: %s\n", spec.name.c_str(), why.c_str());
  }
  // The results file keeps every metric and diagnostic of the run.
  std::vector<Metric> all = e2e.items();
  all.insert(all.end(), pl.items().begin(), pl.items().end());
  all.insert(all.end(), dg.items().begin(), dg.items().end());
  if (std::FILE* f =
          std::fopen((results_dir + "/" + tag + ".json").c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                 "\"seconds\": %s, \"correct\": %s, \"attempted\": %lld, "
                 "\"failed\": %lld, \"metrics\": %s}\n",
                 spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                 args.trace ? 1 : 0, FormatNumber(args.seconds).c_str(),
                 correct ? "true" : "false", static_cast<long long>(attempted),
                 static_cast<long long>(failed), MetricsJson(all).c_str());
    std::fclose(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), MetricsJson(selected).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace platform_bench
}  // namespace aodb

int main(int argc, char** argv) {
  aodb::SetLogLevel(aodb::LogLevel::kError);
  auto args = aodb::platform_bench::ParseArgs(argc, argv);
  return aodb::platform_bench::Run(args);
}
