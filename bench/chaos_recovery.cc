// Chaos recovery: ingestion under the fault-injection subsystem.
//
// Part 1 runs the SHM ingestion workload through a seeded FaultPlan (one of
// three silos killed mid-run and restarted, 1% message drop, 0.5%
// duplication, 5% transient storage errors) under three client
// configurations, and reports how many acked packets the platform
// subsequently lost:
//
//   (a) no retries, fast acks     — the paper's implicit baseline
//   (b) client retries, fast acks — crashes heal but in-window acks can lie
//   (c) retries + durable acks    — the robustness contract: no acked write
//                                   is ever lost
//
// Every configuration uses the same fault seed, so the chaos the three modes
// face is identical and the table isolates the policy, not the luck.
//
// Part 2 measures the membership failure detector against UNANNOUNCED
// failures, where no KillSilo ever fires and only the lease/probe protocol
// can notice: a wedged executor (full hang) and a gray failure (membership
// agent dark, application traffic still served). Over seeded trials it
// reports detection latency (wedge -> declared dead) and recovery latency
// (wedge -> an in-flight idempotent read against the dead silo completes
// from re-placed state) as histogram percentiles.

#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "actor/actor_ref.h"
#include "actor/fault.h"
#include "actor/membership.h"
#include "common/histogram.h"
#include "common/table_printer.h"
#include "shm/platform.h"
#include "shm_bench_util.h"
#include "sim/sim_harness.h"
#include "storage/faulty_storage.h"
#include "storage/mem_kv.h"
#include "storage/persistent_actor.h"

namespace aodb::bench {
namespace {

constexpr int kSensors = 6;
constexpr int kRounds = 36;

struct ModeResult {
  int64_t acked = 0;
  int64_t failed = 0;
  int64_t lost_acked_points = 0;
  int64_t client_retries = 0;
  int64_t dropped = 0;
  int64_t storage_errors = 0;
  Micros total_time = 0;
  /// End-of-run registry snapshot (what --metrics-json exports per mode).
  MetricsSnapshot metrics;
  bool ok = false;
};

struct Mode {
  const char* name;
  bool retries;
  bool durable_acks;
};

ModeResult RunMode(const Mode& mode) {
  ModeResult out;
  RuntimeOptions options;
  options.num_silos = 3;
  options.workers_per_silo = 2;
  options.seed = 42;
  SimHarness harness(options);
  Cluster& cluster = harness.cluster();

  PersistenceOptions persistence;
  persistence.policy = PersistPolicy::kOnEveryUpdate;
  if (mode.retries) {
    persistence.retry.max_retries = 10;
    persistence.retry.initial_backoff_us = 5 * kMicrosPerMilli;
  } else {
    persistence.retry = RetryPolicy::None();
  }
  shm::ShmPlatform::RegisterTypes(cluster, persistence);
  shm::ShmPlatform::ApplyPaperPlacement(cluster);

  FaultPlan plan;
  plan.seed = 7;
  plan.crashes.push_back(SiloCrashEvent{/*at_us=*/3 * kMicrosPerSecond,
                                        /*silo=*/1,
                                        /*restart_after_us=*/3 *
                                            kMicrosPerSecond});
  plan.message.drop_prob = 0.01;
  plan.message.duplicate_prob = 0.005;
  plan.storage.error_prob = 0.05;
  plan.storage.latency_spike_prob = 0.02;
  FaultInjector injector(plan);

  MemKvStore backing;
  auto faulty = std::make_shared<FaultyStateStorage>(
      std::make_shared<KvStateStorage>(&backing), &injector);
  cluster.RegisterStateStorage("default", faulty);

  shm::ShmClientOptions client;
  client.durable_acks = mode.durable_acks;
  if (mode.retries) {
    client.retry.max_retries = 12;
    client.retry.initial_backoff_us = 50 * kMicrosPerMilli;
    client.retry.max_backoff_us = kMicrosPerSecond;
  }
  shm::ShmPlatform platform(&cluster, client);

  shm::ShmTopology topo;
  topo.sensors = kSensors;
  topo.sensors_per_org = kSensors;
  topo.channels_per_sensor = 2;
  topo.virtual_every = 0;
  topo.window_capacity = 4096;

  auto setup = platform.Setup(topo);
  harness.RunFor(10 * kMicrosPerSecond);
  if (!setup.Ready() || !setup.Get().value().ok()) return out;
  injector.Arm(&cluster);

  Micros t0 = harness.Now();
  struct AckedPoint {
    std::string channel_key;
    Micros ts;
    double value;
  };
  struct PendingInsert {
    Future<Status> ack;
    std::vector<AckedPoint> points;
  };
  std::vector<PendingInsert> inserts;
  for (int round = 0; round < kRounds; ++round) {
    Micros ts = harness.Now();
    for (int s = 0; s < kSensors; ++s) {
      double base = s * 1e6 + round;
      std::vector<shm::DataPoint> pts = {{ts, base}, {ts, base + 0.5}};
      PendingInsert pi;
      pi.points = {
          {shm::ShmPlatform::ChannelKey(s, 0), ts, base},
          {shm::ShmPlatform::ChannelKey(s, 1), ts, base + 0.5},
      };
      pi.ack = platform.Insert(topo, s, std::move(pts));
      inserts.push_back(std::move(pi));
    }
    harness.RunFor(250 * kMicrosPerMilli);
  }
  harness.RunFor(120 * kMicrosPerSecond);
  out.total_time = harness.Now() - t0;

  std::map<std::string, std::vector<AckedPoint>> acked_by_channel;
  for (auto& pi : inserts) {
    if (pi.ack.Ready() && pi.ack.Get().ok() && pi.ack.Get().value().ok()) {
      ++out.acked;
      for (const AckedPoint& p : pi.points) {
        acked_by_channel[p.channel_key].push_back(p);
      }
    } else {
      ++out.failed;
    }
  }

  // Kill the ingest-era cluster state the hard way: what does a read after
  // full recovery actually return, and does it contain every acked point?
  for (int s = 0; s < kSensors; ++s) {
    for (int c = 0; c < topo.channels_per_sensor; ++c) {
      auto range = platform.RawRange(topo, s, c, 0,
                                     std::numeric_limits<Micros>::max());
      harness.RunFor(30 * kMicrosPerSecond);
      std::set<std::pair<Micros, double>> present;
      if (range.Ready()) {
        Result<shm::RangeReply> rr = range.Get();
        if (rr.ok()) {
          for (const shm::DataPoint& p : rr.value().points) {
            present.insert({p.ts, p.value});
          }
        }
      }
      for (const AckedPoint& p :
           acked_by_channel[shm::ShmPlatform::ChannelKey(s, c)]) {
        if (!present.count({p.ts, p.value})) ++out.lost_acked_points;
      }
    }
  }

  out.client_retries = platform.insert_retries();
  out.dropped = injector.messages_dropped();
  out.storage_errors = injector.storage_errors();
  out.metrics = harness.SnapshotMetrics();
  out.ok = true;
  return out;
}

// --- Part 2: unannounced failures vs the membership detector ----------------

struct BenchState {
  int64_t value = 0;
  void Encode(BufWriter* w) const { w->PutSigned(value); }
  Status Decode(BufReader* r) { return r->GetSigned(&value); }
};

class BenchCounter : public PersistentActor<BenchState> {
 public:
  static constexpr char kTypeName[] = "bench.MbrCounter";

  BenchCounter()
      : PersistentActor<BenchState>(PersistenceOptions{
            PersistPolicy::kOnEveryUpdate, 100, 10 * kMicrosPerSecond,
            "default", RetryPolicy{}}) {}

  int64_t Add(int64_t d) {
    state().value += d;
    MarkDirty();
    return state().value;
  }
  int64_t Value() { return state().value; }
};

struct DetectorResult {
  int trials = 0;
  int evictions = 0;
  /// wedge -> declared dead, one sample per trial.
  Histogram detect_us;
  /// wedge -> an affected in-flight read completes OK, one sample per read
  /// that was pending against the failed silo.
  Histogram recover_us;
  int64_t dead_letters = 0;
  int64_t deadline_timeouts = 0;
  int64_t failover_resubmitted = 0;
  /// Last trial's end-of-run registry snapshot (--metrics-json export).
  MetricsSnapshot metrics;
};

/// One seeded trial: wedge (or gray-fail) silo 1 with reads in flight and
/// measure how long detection and recovery take. Returns false on a trial
/// that never converged.
bool RunDetectorTrial(bool suppress_only, uint64_t seed, DetectorResult* out) {
  RuntimeOptions options;
  options.num_silos = 3;
  options.workers_per_silo = 2;
  options.seed = seed;
  options.membership.enable = true;
  options.membership.lease_duration_us = kMicrosPerSecond;
  options.membership.heartbeat_period_us = 200 * kMicrosPerMilli;
  options.membership.probe_period_us = 250 * kMicrosPerMilli;
  options.membership.probe_timeout_us = 100 * kMicrosPerMilli;
  options.membership.suspect_after_missed = 2;
  options.membership.eviction_quorum = 2;
  options.membership.failover.max_retries = 3;
  options.membership.failover.initial_backoff_us = 10 * kMicrosPerMilli;
  options.default_call_deadline_us = 5 * kMicrosPerSecond;

  MemKvStore system_kv;
  MemKvStore grain_kv;
  SimHarness harness(options, &system_kv);
  Cluster& cluster = harness.cluster();
  static const Status registered = [] {
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        BenchCounter::kTypeName, &BenchCounter::Add, "BenchCounter.Add"));
    return MethodRegistry::Global().Register(
        BenchCounter::kTypeName, &BenchCounter::Value, "BenchCounter.Value",
        /*idempotent=*/true);
  }();
  if (!registered.ok()) return false;
  cluster.RegisterActorType<BenchCounter>();
  cluster.RegisterStateStorage(
      "default", std::make_shared<KvStateStorage>(&grain_kv));

  constexpr int kCounters = 12;
  constexpr SiloId kVictim = 1;
  std::vector<ActorRef<BenchCounter>> refs;
  for (int i = 0; i < kCounters; ++i) {
    refs.push_back(cluster.Ref<BenchCounter>("b" + std::to_string(i)));
    auto f = refs.back().Call(&BenchCounter::Add, int64_t{i + 1});
    if (!RunUntilReady(harness, f, 10 * kMicrosPerSecond) || !f.Get().ok()) {
      return false;
    }
  }
  harness.RunFor(kMicrosPerSecond);  // Drain storage writes.

  std::vector<int> on_victim;
  for (int i = 0; i < kCounters; ++i) {
    auto host = cluster.directory().Lookup(
        ActorId{BenchCounter::kTypeName, "b" + std::to_string(i)});
    if (host.has_value() && host.value() == kVictim) on_victim.push_back(i);
  }

  const Micros wedge_at = harness.Now();
  if (suppress_only) {
    cluster.membership()->SuppressSilo(kVictim, true);
  } else {
    cluster.silo(kVictim)->SetWedged(true);
  }
  // In-flight reads against the failing silo: under a full wedge these ride
  // the failover path once the eviction lands; under a gray failure the
  // silo still answers them directly.
  std::vector<std::pair<int, Future<int64_t>>> reads;
  for (int i : on_victim) {
    reads.emplace_back(i, refs[i].Call(&BenchCounter::Value));
  }
  // Advance in 1 ms steps so each read's completion time (and the eviction
  // itself) is observed at millisecond resolution.
  const Micros give_up = harness.Now() + 20 * kMicrosPerSecond;
  Micros evicted_at = 0;
  std::vector<char> done(reads.size(), 0);
  size_t remaining = reads.size();
  while (harness.Now() < give_up && (evicted_at == 0 || remaining > 0)) {
    harness.RunFor(kMicrosPerMilli);
    if (evicted_at == 0 && !cluster.SiloAlive(kVictim)) {
      evicted_at = cluster.membership()->LastEvictionAt(kVictim);
    }
    for (size_t k = 0; k < reads.size(); ++k) {
      if (done[k] || !reads[k].second.Ready()) continue;
      done[k] = 1;
      --remaining;
      auto r = reads[k].second.Get();
      if (r.ok() && r.value() == reads[k].first + 1) {
        out->recover_us.Record(harness.Now() - wedge_at);
      }
    }
  }
  if (evicted_at == 0) return false;
  out->detect_us.Record(evicted_at - wedge_at);
  ++out->evictions;
  out->metrics = harness.SnapshotMetrics();
  const auto& counters = out->metrics.counters;
  out->dead_letters += counters.at("cluster.dead_letters");
  out->deadline_timeouts += counters.at("cluster.deadline_timeouts");
  out->failover_resubmitted += counters.at("cluster.failover_resubmitted");
  ++out->trials;
  return true;
}

}  // namespace
}  // namespace aodb::bench

int main(int argc, char** argv) {
  using namespace aodb;
  using namespace aodb::bench;

  MetricsJsonWriter metrics_json(MetricsJsonPathFromArgs(argc, argv));

  std::printf("=== Chaos recovery: SHM ingestion through silo crash ===\n");
  std::printf(
      "%d sensors x %d rounds; seed-42 cluster, seed-7 fault plan:\n"
      "silo 1 killed at t+3s (restarts 3s later), 1%% message drop,\n"
      "0.5%% duplication, 5%% transient storage errors.\n\n",
      kSensors, kRounds);

  const Mode kModes[] = {
      {"no retries, fast acks", false, false},
      {"retries, fast acks", true, false},
      {"retries + durable acks", true, true},
  };
  TablePrinter table({"client mode", "acked", "failed", "acked pts lost",
                      "retries", "drops", "st.errors", "wall (ms)"});
  for (const Mode& mode : kModes) {
    ModeResult r = RunMode(mode);
    if (!r.ok) {
      std::fprintf(stderr, "mode %s failed setup\n", mode.name);
      return 1;
    }
    metrics_json.Add(std::string("chaos:") + mode.name, r.metrics);
    table.AddRow({mode.name, TablePrinter::Fmt(r.acked),
                  TablePrinter::Fmt(r.failed),
                  TablePrinter::Fmt(r.lost_acked_points),
                  TablePrinter::Fmt(r.client_retries),
                  TablePrinter::Fmt(r.dropped),
                  TablePrinter::Fmt(r.storage_errors),
                  TablePrinter::FmtMsFromUs(r.total_time)});
  }
  table.Print();
  std::printf(
      "\nShape check: without retries, crash-window inserts fail outright"
      "\n(and any fast ack issued before persistence can be lost). Client"
      "\nretries recover the failures; durable acks additionally guarantee"
      "\nzero acked-point loss — the chaos acceptance contract.\n");

  std::printf(
      "\n=== Membership detector: unannounced crash & gray failure ===\n"
      "3 silos, heartbeat 200ms / probe 250ms (timeout 100ms), suspect\n"
      "after 2 missed probes, quorum 2, lease 1s. Silo 1 fails WITHOUT\n"
      "KillSilo; only the lease/probe protocol can notice.\n\n");

  constexpr int kTrials = 12;
  struct Scenario {
    const char* name;
    bool suppress_only;
  };
  const Scenario kScenarios[] = {
      {"wedged executor (hang)", false},
      {"gray failure (silent agent)", true},
  };
  TablePrinter det_table({"scenario", "trials", "evicted", "detect p50 (ms)",
                          "detect p99 (ms)", "recover p50 (ms)",
                          "recover p99 (ms)", "failovers", "dead letters"});
  for (const Scenario& sc : kScenarios) {
    DetectorResult r;
    for (int t = 0; t < kTrials; ++t) {
      if (!RunDetectorTrial(sc.suppress_only, /*seed=*/100 + t * 17, &r)) {
        std::fprintf(stderr, "detector trial %d (%s) never converged\n", t,
                     sc.name);
        return 1;
      }
    }
    metrics_json.Add(std::string("detector:") + sc.name, r.metrics);
    det_table.AddRow(
        {sc.name, TablePrinter::Fmt(static_cast<int64_t>(r.trials)),
         TablePrinter::Fmt(static_cast<int64_t>(r.evictions)),
         TablePrinter::FmtMsFromUs(r.detect_us.Percentile(50)),
         TablePrinter::FmtMsFromUs(r.detect_us.Percentile(99)),
         TablePrinter::FmtMsFromUs(r.recover_us.Percentile(50)),
         TablePrinter::FmtMsFromUs(r.recover_us.Percentile(99)),
         TablePrinter::Fmt(r.failover_resubmitted),
         TablePrinter::Fmt(r.dead_letters)});
  }
  det_table.Print();
  std::printf(
      "\nShape check: detection lands within the suspicion window (~2 probe"
      "\nperiods + timeout) in both scenarios. A full wedge recovers via"
      "\nfailover shortly after eviction; a gray failure 'recovers'"
      "\nimmediately because the silo never stopped serving reads.\n");
  if (!metrics_json.Write()) return 1;
  return 0;
}
