// Implementation of the deterministic chaos explorer: fault-schedule
// generation, the oracle workload + invariant checkers, JSON replay
// artifacts, and ddmin schedule shrinking. See explore.h for the model.

#include "sim/explore.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "actor/actor_ref.h"
#include "actor/fault.h"
#include "actor/membership.h"
#include "actor/method_registry.h"
#include "common/json.h"
#include "common/logging.h"
#include "sim/sim_harness.h"
#include "storage/faulty_storage.h"
#include "storage/mem_kv.h"
#include "storage/persistent_actor.h"

namespace aodb {
namespace dst {

namespace {

// --- The oracle actor --------------------------------------------------------

/// Durable monotonic sequence register. Apply(seq) is idempotent — applying
/// a sequence number at or below the current one changes nothing — and
/// ALWAYS writes before acking, so every OK reply implies the replied value
/// is durable (even a duplicate-delivery re-ack after a lost reply must
/// re-establish durability before answering).
struct SeqState {
  int64_t last_seq = 0;
  void Encode(BufWriter* w) const { w->PutSigned(last_seq); }
  Status Decode(BufReader* r) { return r->GetSigned(&last_seq); }
};

class DstSeqActor : public PersistentActor<SeqState> {
 public:
  static constexpr char kTypeName[] = "dst.Seq";

  DstSeqActor() : PersistentActor<SeqState>(MakePersistence()) {}

  Future<int64_t> Apply(int64_t seq) {
    if (seq > state().last_seq) state().last_seq = seq;
    int64_t value = state().last_seq;
    Promise<int64_t> done;
    WriteStateAsync().OnReady([done, value](Result<Status>&& r) {
      Status st = r.ok() ? r.value() : r.status();
      if (st.ok()) {
        done.SetValue(value);
      } else {
        done.SetError(st);
      }
    });
    return done.GetFuture();
  }

  int64_t Last() { return state().last_seq; }

 private:
  static PersistenceOptions MakePersistence() {
    PersistenceOptions o;
    // Writes are explicit (Apply) and acks must mean durable, so the
    // deactivation flush must NOT silently repair a lost write: never mark
    // dirty, never auto-flush.
    o.policy = PersistPolicy::kOnDeactivate;
    o.retry.max_retries = 6;
    o.retry.initial_backoff_us = 4 * kMicrosPerMilli;
    o.retry.max_backoff_us = 60 * kMicrosPerMilli;
    return o;
  }
};

Status RegisterDstWire() {
  static const Status st = [] {
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        DstSeqActor::kTypeName, &DstSeqActor::Apply, "dst.Seq.Apply",
        /*idempotent=*/true));
    return MethodRegistry::Global().Register(
        DstSeqActor::kTypeName, &DstSeqActor::Last, "dst.Seq.Last",
        /*idempotent=*/true);
  }();
  return st;
}

// --- Fingerprinting ----------------------------------------------------------

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void HashBytes(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void HashI64(uint64_t* h, int64_t v) { HashBytes(h, &v, sizeof(v)); }

void HashStr(uint64_t* h, const std::string& s) {
  HashI64(h, static_cast<int64_t>(s.size()));
  HashBytes(h, s.data(), s.size());
}

std::string HexDigest(uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return std::string(buf);
}

// --- Runtime configuration ---------------------------------------------------

/// Cluster options tuned so one scenario's detect-and-recover cycle fits a
/// few virtual seconds: fast membership (lease 1 s, probes 4/s), aggressive
/// idle deactivation (the split-brain race fuel: actors deactivate between
/// client operations while duplicates and reordered messages are still in
/// flight), and hot-actor migration enabled so the migration path is under
/// test too.
RuntimeOptions MakeRuntimeOptions(const FaultPlan& plan,
                                  const ExploreConfig& config) {
  RuntimeOptions o;
  o.num_silos = config.num_silos;
  o.workers_per_silo = 2;
  o.seed = plan.seed;
  o.default_call_deadline_us = kMicrosPerSecond;
  o.membership.enable = true;
  o.membership.lease_duration_us = kMicrosPerSecond;
  o.membership.heartbeat_period_us = 200 * kMicrosPerMilli;
  o.membership.probe_period_us = 250 * kMicrosPerMilli;
  o.membership.probe_timeout_us = 100 * kMicrosPerMilli;
  o.membership.probe_fanout = 2;
  o.membership.suspect_after_missed = 2;
  o.membership.eviction_quorum = 2;
  o.membership.failover.max_retries = 3;
  o.membership.failover.initial_backoff_us = 10 * kMicrosPerMilli;
  o.max_resident_activations = config.max_resident_activations;
  o.lifecycle.enable_idle_deactivation = true;
  o.lifecycle.idle_timeout_us = 8 * kMicrosPerMilli;
  o.lifecycle.scan_interval_us = 5 * kMicrosPerMilli;
  o.overload.enable_hot_migration = true;
  o.overload.scan_interval_us = 50 * kMicrosPerMilli;
  o.overload.hot_actor_min_depth = 1;
  o.overload.min_load_delta = 1;
  o.overload.migration_cooldown_us = 100 * kMicrosPerMilli;
  return o;
}

std::string ActorKey(int i) { return "s" + std::to_string(i); }

// --- The per-actor client driver --------------------------------------------

/// Serial closed-loop client for one oracle actor: submit Apply(seq), on ack
/// advance to seq+1 after op_gap, on failure re-submit the SAME seq after
/// retry_gap (at-least-once; Apply is idempotent). Monotonicity of replies
/// is checked on every ack.
struct Driver {
  explicit Driver(ActorRef<DstSeqActor> r) : ref(std::move(r)) {}
  ActorRef<DstSeqActor> ref;
  int index = 0;
  int64_t next_seq = 1;
  int64_t max_acked = 0;
  int64_t last_reply = 0;
  int64_t acked = 0;
};

}  // namespace

// --- Plan generation ---------------------------------------------------------

FaultPlan GeneratePlan(uint64_t seed, const ExploreConfig& config) {
  // Distinct stream tag so plan-shape draws are independent of the
  // injector's runtime Bernoulli streams (which also derive from `seed`).
  constexpr uint64_t kPlanStream = 0x706c616e67656eULL;  // "plangen"
  Rng rng(seed ^ kPlanStream);
  FaultPlan plan;
  plan.seed = seed;
  const Micros window = config.duration_us;
  const auto in_window = [&rng, window] {
    // Land faults inside [12.5%, 75%) of the window so the workload is
    // running when they fire and has time to limp before the heal phase.
    return window / 8 +
           static_cast<Micros>(rng.NextBelow(
               static_cast<uint64_t>(window / 2 + window / 8)));
  };

  int n_crashes = static_cast<int>(
      rng.NextBelow(static_cast<uint64_t>(config.max_crashes) + 1));
  for (int i = 0; i < n_crashes; ++i) {
    SiloCrashEvent ev;
    ev.at_us = in_window();
    ev.silo = static_cast<SiloId>(
        rng.NextBelow(static_cast<uint64_t>(config.num_silos)));
    ev.restart_after_us =
        200 * kMicrosPerMilli +
        static_cast<Micros>(rng.NextBelow(1200 * kMicrosPerMilli));
    plan.crashes.push_back(ev);
  }

  int n_wedges = static_cast<int>(
      rng.NextBelow(static_cast<uint64_t>(config.max_wedges) + 1));
  for (int i = 0; i < n_wedges; ++i) {
    SiloWedgeEvent ev;
    ev.at_us = in_window();
    ev.silo = static_cast<SiloId>(
        rng.NextBelow(static_cast<uint64_t>(config.num_silos)));
    ev.suppress_only = rng.Bernoulli(0.4);
    plan.wedges.push_back(ev);
  }

  int n_partitions = static_cast<int>(
      rng.NextBelow(static_cast<uint64_t>(config.max_partitions) + 1));
  for (int i = 0; i < n_partitions; ++i) {
    LinkPartitionEvent ev;
    ev.at_us = in_window();
    ev.from = static_cast<SiloId>(
        rng.NextBelow(static_cast<uint64_t>(config.num_silos)));
    ev.to = static_cast<SiloId>(
        (static_cast<uint64_t>(ev.from) + 1 +
         rng.NextBelow(static_cast<uint64_t>(config.num_silos - 1))) %
        static_cast<uint64_t>(config.num_silos));
    ev.heal_after_us =
        300 * kMicrosPerMilli +
        static_cast<Micros>(rng.NextBelow(kMicrosPerSecond));
    ev.symmetric = rng.Bernoulli(0.3);
    plan.partitions.push_back(ev);
  }

  plan.message.drop_prob = rng.NextDouble() * config.max_drop_prob;
  plan.message.duplicate_prob = rng.NextDouble() * config.max_duplicate_prob;
  plan.message.corrupt_prob = rng.NextDouble() * config.max_corrupt_prob;
  plan.message.reorder_prob = rng.NextDouble() * config.max_reorder_prob;
  plan.storage.error_prob = rng.NextDouble() * config.max_storage_error_prob;
  plan.storage.latency_spike_prob = rng.NextDouble() * 0.05;
  plan.storage.torn_write_prob =
      rng.NextDouble() * config.max_torn_write_prob;
  return plan;
}

// --- The scenario runner -----------------------------------------------------

RunResult RunScenario(const FaultPlan& plan, const ExploreConfig& config) {
  RunResult out;
  uint64_t h = kFnvOffset;
  const int64_t leak_base = PromisesLeaked();
  {
    Status reg = RegisterDstWire();
    if (!reg.ok()) {
      out.violations.push_back("wire registration failed: " + reg.ToString());
      return out;
    }
    RuntimeOptions options = MakeRuntimeOptions(plan, config);
    MemKvStore system_kv;
    SimHarness harness(options, &system_kv);
    Cluster& cluster = harness.cluster();
    cluster.RegisterActorType<DstSeqActor>();
    FaultInjector injector(plan);
    MemKvStore backing;
    auto faulty = std::make_shared<FaultyStateStorage>(
        std::make_shared<KvStateStorage>(&backing), &injector);
    cluster.RegisterStateStorage("default", faulty);
    cluster.StartIdleScanner();
    cluster.overload_controller().Start();

    // Invariant 1: exactly-one-live-activation, cross-checked against the
    // directory. Run at every quiesce point — a transient split-brain is
    // GC'd by the idle sweeper long before end-of-run, so an end-only check
    // would miss it. Orphan directory entries (placement whose first
    // message was lost) are legal; a live activation the directory does not
    // point at is not.
    auto check_catalog = [&] {
      ++out.checks_run;
      std::unordered_map<ActorId, std::vector<SiloId>, ActorIdHash> hosts;
      for (int s = 0; s < config.num_silos; ++s) {
        Silo* silo = cluster.silo(s);
        if (silo == nullptr || !silo->alive()) continue;
        for (const ActorId& id : silo->LiveActivations()) {
          hosts[id].push_back(s);
        }
      }
      for (const auto& [id, silos] : hosts) {
        if (silos.size() > 1) {
          std::string where;
          for (SiloId s : silos) {
            if (!where.empty()) where += ",";
            where += std::to_string(s);
          }
          out.violations.push_back(
              "split-brain: " + id.ToString() + " live on silos {" + where +
              "} at t=" + std::to_string(harness.Now()) + "us");
          continue;
        }
        auto owner = cluster.directory().LookupEntry(id);
        if (!owner.has_value() || owner->silo != silos[0]) {
          out.violations.push_back(
              "stray activation: " + id.ToString() + " live on silo " +
              std::to_string(silos[0]) + " but directory says " +
              (owner.has_value() ? std::to_string(owner->silo) : "<none>") +
              " at t=" + std::to_string(harness.Now()) + "us");
        } else if (owner->paged) {
          // The paged flag promises "registered but NOT resident"; the
          // winning fault-in creator clears it in the same synchronous
          // block that puts the activation in the catalog, so a live
          // activation under a paged entry is a paging/directory desync
          // (double fault-in, or an eviction that never left the catalog).
          out.violations.push_back(
              "paged-desync: " + id.ToString() + " live on silo " +
              std::to_string(silos[0]) +
              " but its directory entry is marked paged at t=" +
              std::to_string(harness.Now()) + "us");
        }
      }
    };

    // The oracle workload (invariants 2 and 3 accumulate here).
    std::vector<std::shared_ptr<Driver>> drivers;
    for (int i = 0; i < config.num_actors; ++i) {
      auto d = std::make_shared<Driver>(cluster.Ref<DstSeqActor>(ActorKey(i)));
      d->index = i;
      drivers.push_back(std::move(d));
    }
    Executor* client = harness.client_executor();
    const Micros window_end = harness.Now() + config.duration_us;
    std::function<void(std::shared_ptr<Driver>)> step;
    step = [&, client, window_end](std::shared_ptr<Driver> d) {
      if (d->next_seq > config.ops_per_actor ||
          harness.Now() >= window_end) {
        return;
      }
      const int64_t seq = d->next_seq;
      d->ref.Call(&DstSeqActor::Apply, seq)
          .OnReady([&, client, d, seq](Result<int64_t>&& r) {
            if (r.ok()) {
              const int64_t v = r.value();
              if (v < d->last_reply) {
                out.violations.push_back(
                    "monotonicity: actor " + ActorKey(d->index) +
                    " reply went backwards (" + std::to_string(v) + " after " +
                    std::to_string(d->last_reply) + ")");
              }
              if (v < seq) {
                out.violations.push_back(
                    "monotonicity: actor " + ActorKey(d->index) + " acked seq " +
                    std::to_string(seq) + " but replied " + std::to_string(v));
              }
              d->last_reply = std::max(d->last_reply, v);
              d->max_acked = std::max(d->max_acked, seq);
              ++d->acked;
              d->next_seq = seq + 1;
              client->PostAfter(config.op_gap_us, [&, d] { step(d); });
            } else {
              // At-least-once: re-submit the same sequence number.
              client->PostAfter(config.retry_gap_us, [&, d] { step(d); });
            }
          });
    };
    for (auto& d : drivers) step(d);

    // The fault window: arm the plan, then advance in quiesce-point steps.
    injector.Arm(&cluster);
    while (harness.Now() < window_end) {
      harness.RunFor(config.check_interval_us);
      check_catalog();
    }
    if (config.force_violation) {
      out.violations.push_back(
          "forced: synthetic invariant violation on actor " +
          std::string(DstSeqActor::kTypeName) + "/" + ActorKey(0) +
          " (postmortem pipeline self-test) at t=" +
          std::to_string(harness.Now()) + "us");
    }

    // Heal phase: flush wedges (kill fails their swallowed backlog
    // deterministically), restart every dead silo, unsuppress membership
    // agents, and mend every link — then settle until retries run dry.
    for (int s = 0; s < config.num_silos; ++s) {
      if (cluster.SiloAlive(s) && cluster.silo(s)->wedged()) {
        cluster.KillSilo(s);
      }
    }
    if (MembershipService* m = cluster.membership()) {
      for (int s = 0; s < config.num_silos; ++s) m->SuppressSilo(s, false);
    }
    for (int s = 0; s < config.num_silos; ++s) {
      if (!cluster.SiloAlive(s)) cluster.RestartSilo(s);
    }
    for (int a = 0; a < config.num_silos; ++a) {
      for (int b = 0; b < config.num_silos; ++b) {
        if (a != b) cluster.network().SetPartitioned(a, b, false);
      }
    }
    Micros settled = 0;
    while (settled < config.settle_us) {
      harness.RunFor(config.check_interval_us);
      settled += config.check_interval_us;
      check_catalog();
    }

    // Invariant 2 (conservation): force every activation to be rebuilt from
    // persisted state, then read back each actor's durable sequence. Since
    // the oracle never marks dirty, the deactivation flush cannot paper
    // over a lost write.
    Future<Status> drained = cluster.DeactivateAll();
    if (!RunUntilReady(harness, drained, 5 * kMicrosPerSecond)) {
      out.violations.push_back("teardown: DeactivateAll did not complete");
    }
    for (auto& d : drivers) {
      const int64_t floor = std::max(d->max_acked, d->last_reply);
      bool read_ok = false;
      int64_t durable = 0;
      for (int attempt = 0; attempt < 8 && !read_ok; ++attempt) {
        Future<int64_t> f = d->ref.Call(&DstSeqActor::Last);
        if (RunUntilReady(harness, f, 2 * kMicrosPerSecond) &&
            f.Get().ok()) {
          durable = f.Get().value();
          read_ok = true;
        } else {
          harness.RunFor(100 * kMicrosPerMilli);
        }
      }
      if (!read_ok) {
        out.violations.push_back("conservation: actor " + ActorKey(d->index) +
                                 " unreadable after the cluster healed");
      } else if (durable < floor) {
        out.violations.push_back(
            "conservation: actor " + ActorKey(d->index) + " acked seq " +
            std::to_string(floor) + " but recovered only " +
            std::to_string(durable));
      }
      out.acked_ops += d->acked;
      HashI64(&h, d->acked);
      HashI64(&h, d->max_acked);
      HashI64(&h, d->last_reply);
      HashI64(&h, read_ok ? durable : -1);
    }
    check_catalog();

    // Fingerprint the rest of the observable outcome while the cluster is
    // still alive.
    HashI64(&h, injector.messages_dropped());
    HashI64(&h, injector.messages_duplicated());
    HashI64(&h, injector.messages_corrupted());
    HashI64(&h, injector.messages_reordered());
    HashI64(&h, injector.storage_errors());
    HashI64(&h, injector.storage_spikes());
    HashI64(&h, injector.torn_writes());
    HashI64(&h, injector.link_severs());
    HashI64(&h, injector.silo_kills());
    HashI64(&h, injector.silo_restarts());
    const MetricsSnapshot snap = cluster.SnapshotMetrics();
    for (const char* name :
         {"cluster.dead_letters", "cluster.auto_evictions",
          "cluster.failover_resubmitted", "cluster.failover_failed",
          "cluster.deadline_timeouts", "cluster.no_live_silo_rejects",
          "wire.requests", "wire.decode_failures"}) {
      HashI64(&h, snap.counters.at(name));
    }
    HashI64(&h, cluster.TotalMessagesProcessed());
    HashI64(&h, out.checks_run);

    // Violating run: capture the postmortem bundle while the cluster is
    // still up (it needs live membership, catalogs, and metric state).
    if (!out.violations.empty()) {
      out.postmortem_json = cluster.BuildPostmortemJson(
          "dst invariant violation: " + out.violations.front());
    }

    cluster.Stop();
  }
  // Invariant 4: the whole scenario — cluster, scheduler, drivers — is torn
  // down, so any promise that still had a continuation but never completed
  // has been destroyed and counted by now.
  const int64_t leaked = PromisesLeaked() - leak_base;
  if (leaked > 0) {
    out.violations.push_back("promise leak: " + std::to_string(leaked) +
                             " promise(s) destroyed with continuations "
                             "attached but never completed");
  }
  HashI64(&h, leaked);
  for (const std::string& v : out.violations) HashStr(&h, v);
  out.fingerprint = HexDigest(h);
  return out;
}

// --- JSON replay artifacts ---------------------------------------------------

namespace {

void AppendDouble(std::string* s, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *s += buf;
}

void AppendI64(std::string* s, int64_t v) { *s += std::to_string(v); }

}  // namespace

std::string PlanToJson(const FaultPlan& plan) {
  std::string s;
  s += "{\n  \"seed\": ";
  AppendI64(&s, static_cast<int64_t>(plan.seed));
  s += ",\n  \"crashes\": [";
  for (size_t i = 0; i < plan.crashes.size(); ++i) {
    const SiloCrashEvent& ev = plan.crashes[i];
    s += i == 0 ? "\n" : ",\n";
    s += "    {\"at_us\": ";
    AppendI64(&s, ev.at_us);
    s += ", \"silo\": ";
    AppendI64(&s, ev.silo);
    s += ", \"restart_after_us\": ";
    AppendI64(&s, ev.restart_after_us);
    s += "}";
  }
  s += plan.crashes.empty() ? "]" : "\n  ]";
  s += ",\n  \"wedges\": [";
  for (size_t i = 0; i < plan.wedges.size(); ++i) {
    const SiloWedgeEvent& ev = plan.wedges[i];
    s += i == 0 ? "\n" : ",\n";
    s += "    {\"at_us\": ";
    AppendI64(&s, ev.at_us);
    s += ", \"silo\": ";
    AppendI64(&s, ev.silo);
    s += ", \"suppress_only\": ";
    s += ev.suppress_only ? "true" : "false";
    s += "}";
  }
  s += plan.wedges.empty() ? "]" : "\n  ]";
  s += ",\n  \"partitions\": [";
  for (size_t i = 0; i < plan.partitions.size(); ++i) {
    const LinkPartitionEvent& ev = plan.partitions[i];
    s += i == 0 ? "\n" : ",\n";
    s += "    {\"at_us\": ";
    AppendI64(&s, ev.at_us);
    s += ", \"from\": ";
    AppendI64(&s, ev.from);
    s += ", \"to\": ";
    AppendI64(&s, ev.to);
    s += ", \"heal_after_us\": ";
    AppendI64(&s, ev.heal_after_us);
    s += ", \"symmetric\": ";
    s += ev.symmetric ? "true" : "false";
    s += "}";
  }
  s += plan.partitions.empty() ? "]" : "\n  ]";
  s += ",\n  \"message\": {\"drop_prob\": ";
  AppendDouble(&s, plan.message.drop_prob);
  s += ", \"duplicate_prob\": ";
  AppendDouble(&s, plan.message.duplicate_prob);
  s += ", \"corrupt_prob\": ";
  AppendDouble(&s, plan.message.corrupt_prob);
  s += ", \"reorder_prob\": ";
  AppendDouble(&s, plan.message.reorder_prob);
  s += ", \"reorder_max_delay_us\": ";
  AppendI64(&s, plan.message.reorder_max_delay_us);
  s += "},\n  \"storage\": {\"error_prob\": ";
  AppendDouble(&s, plan.storage.error_prob);
  s += ", \"latency_spike_prob\": ";
  AppendDouble(&s, plan.storage.latency_spike_prob);
  s += ", \"spike_latency_us\": ";
  AppendI64(&s, plan.storage.spike_latency_us);
  s += ", \"error_code\": ";
  AppendI64(&s, static_cast<int64_t>(plan.storage.error));
  s += ", \"torn_write_prob\": ";
  AppendDouble(&s, plan.storage.torn_write_prob);
  s += "}\n}\n";
  return s;
}

Status PlanFromJson(const std::string& json, FaultPlan* out) {
  *out = FaultPlan{};
  out->seed = 0;
  JsonReader r(json);
  auto bad = [](const std::string& what) {
    return Status::Corruption("replay artifact: malformed " + what);
  };
  bool ok = ReadObject(&r, [&](const std::string& key) -> bool {
    if (key == "seed") {
      int64_t v;
      if (!r.ReadI64(&v)) return false;
      out->seed = static_cast<uint64_t>(v);
      return true;
    }
    if (key == "crashes") {
      return ReadArray(&r, [&] {
        SiloCrashEvent ev;
        bool got = ReadObject(&r, [&](const std::string& k) -> bool {
          int64_t v;
          if (k == "at_us") return r.ReadI64(&ev.at_us);
          if (k == "silo") {
            if (!r.ReadI64(&v)) return false;
            ev.silo = static_cast<SiloId>(v);
            return true;
          }
          if (k == "restart_after_us") return r.ReadI64(&ev.restart_after_us);
          return r.SkipValue();
        });
        if (got) out->crashes.push_back(ev);
        return got;
      });
    }
    if (key == "wedges") {
      return ReadArray(&r, [&] {
        SiloWedgeEvent ev;
        bool got = ReadObject(&r, [&](const std::string& k) -> bool {
          int64_t v;
          if (k == "at_us") return r.ReadI64(&ev.at_us);
          if (k == "silo") {
            if (!r.ReadI64(&v)) return false;
            ev.silo = static_cast<SiloId>(v);
            return true;
          }
          if (k == "suppress_only") return r.ReadBool(&ev.suppress_only);
          return r.SkipValue();
        });
        if (got) out->wedges.push_back(ev);
        return got;
      });
    }
    if (key == "partitions") {
      return ReadArray(&r, [&] {
        LinkPartitionEvent ev;
        bool got = ReadObject(&r, [&](const std::string& k) -> bool {
          int64_t v;
          if (k == "at_us") return r.ReadI64(&ev.at_us);
          if (k == "from") {
            if (!r.ReadI64(&v)) return false;
            ev.from = static_cast<SiloId>(v);
            return true;
          }
          if (k == "to") {
            if (!r.ReadI64(&v)) return false;
            ev.to = static_cast<SiloId>(v);
            return true;
          }
          if (k == "heal_after_us") return r.ReadI64(&ev.heal_after_us);
          if (k == "symmetric") return r.ReadBool(&ev.symmetric);
          return r.SkipValue();
        });
        if (got) out->partitions.push_back(ev);
        return got;
      });
    }
    if (key == "message") {
      return ReadObject(&r, [&](const std::string& k) -> bool {
        if (k == "drop_prob") return r.ReadDouble(&out->message.drop_prob);
        if (k == "duplicate_prob") {
          return r.ReadDouble(&out->message.duplicate_prob);
        }
        if (k == "corrupt_prob") {
          return r.ReadDouble(&out->message.corrupt_prob);
        }
        if (k == "reorder_prob") {
          return r.ReadDouble(&out->message.reorder_prob);
        }
        if (k == "reorder_max_delay_us") {
          return r.ReadI64(&out->message.reorder_max_delay_us);
        }
        return r.SkipValue();
      });
    }
    if (key == "storage") {
      return ReadObject(&r, [&](const std::string& k) -> bool {
        int64_t v;
        if (k == "error_prob") return r.ReadDouble(&out->storage.error_prob);
        if (k == "latency_spike_prob") {
          return r.ReadDouble(&out->storage.latency_spike_prob);
        }
        if (k == "spike_latency_us") {
          return r.ReadI64(&out->storage.spike_latency_us);
        }
        if (k == "error_code") {
          if (!r.ReadI64(&v)) return false;
          out->storage.error = static_cast<StatusCode>(v);
          return true;
        }
        if (k == "torn_write_prob") {
          return r.ReadDouble(&out->storage.torn_write_prob);
        }
        return r.SkipValue();
      });
    }
    return r.SkipValue();
  });
  if (!ok) return bad("plan object");
  if (!r.AtEnd()) return bad("trailing content");
  if (out->seed == 0) return bad("plan (missing seed)");
  return Status::OK();
}

// --- Schedule shrinking ------------------------------------------------------

int CountFaultEvents(const FaultPlan& plan) {
  return static_cast<int>(plan.crashes.size() + plan.wedges.size() +
                          plan.partitions.size());
}

namespace {

/// Flattened discrete event: (kind, index into the original plan's vector).
struct FlatEvent {
  enum Kind { kCrash, kWedge, kPartition };
  Kind kind;
  size_t index;
};

std::vector<FlatEvent> Flatten(const FaultPlan& plan) {
  std::vector<FlatEvent> out;
  for (size_t i = 0; i < plan.crashes.size(); ++i) {
    out.push_back({FlatEvent::kCrash, i});
  }
  for (size_t i = 0; i < plan.wedges.size(); ++i) {
    out.push_back({FlatEvent::kWedge, i});
  }
  for (size_t i = 0; i < plan.partitions.size(); ++i) {
    out.push_back({FlatEvent::kPartition, i});
  }
  return out;
}

FaultPlan Rebuild(const FaultPlan& original,
                  const std::vector<FlatEvent>& keep) {
  FaultPlan plan;
  plan.seed = original.seed;
  plan.message = original.message;
  plan.storage = original.storage;
  for (const FlatEvent& ev : keep) {
    switch (ev.kind) {
      case FlatEvent::kCrash:
        plan.crashes.push_back(original.crashes[ev.index]);
        break;
      case FlatEvent::kWedge:
        plan.wedges.push_back(original.wedges[ev.index]);
        break;
      case FlatEvent::kPartition:
        plan.partitions.push_back(original.partitions[ev.index]);
        break;
    }
  }
  return plan;
}

}  // namespace

FaultPlan ShrinkPlan(const FaultPlan& plan, const ExploreConfig& config,
                     int max_runs, int* shrink_runs) {
  int runs = 0;
  auto violates = [&](const FaultPlan& candidate) {
    ++runs;
    return !RunScenario(candidate, config).violations.empty();
  };
  std::vector<FlatEvent> events = Flatten(plan);
  // Fast path: if the probabilistic streams alone reproduce the violation,
  // the minimal schedule is empty.
  if (!events.empty() && runs < max_runs &&
      violates(Rebuild(plan, {}))) {
    events.clear();
  }
  // Classic ddmin over complements: drop chunks of shrinking granularity as
  // long as the violation survives.
  size_t n = 2;
  while (events.size() >= 2 && runs < max_runs) {
    const size_t chunk = (events.size() + n - 1) / n;
    bool reduced = false;
    for (size_t i = 0; i < n && !reduced && runs < max_runs; ++i) {
      const size_t lo = i * chunk;
      if (lo >= events.size()) break;
      const size_t hi = std::min(events.size(), lo + chunk);
      std::vector<FlatEvent> complement;
      complement.reserve(events.size() - (hi - lo));
      complement.insert(complement.end(), events.begin(),
                        events.begin() + static_cast<ptrdiff_t>(lo));
      complement.insert(complement.end(),
                        events.begin() + static_cast<ptrdiff_t>(hi),
                        events.end());
      if (complement.size() == events.size()) continue;
      if (violates(Rebuild(plan, complement))) {
        events = std::move(complement);
        n = std::max<size_t>(2, n - 1);
        reduced = true;
      }
    }
    if (!reduced) {
      if (n >= events.size()) break;
      n = std::min(events.size(), n * 2);
    }
  }
  if (shrink_runs != nullptr) *shrink_runs = runs;
  return Rebuild(plan, events);
}

}  // namespace dst
}  // namespace aodb
