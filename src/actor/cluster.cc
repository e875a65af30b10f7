#include "actor/cluster.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "actor/fault.h"
#include "actor/link.h"
#include "actor/membership.h"
#include "actor/method_registry.h"
#include "actor/thread_pool.h"
#include "actor/wire_format.h"
#include "common/codec.h"
#include "storage/state_storage.h"
#include "common/logging.h"
#include "common/retry.h"

namespace aodb {

namespace {
/// Flight-record slots per silo ring; the oldest events are overwritten.
constexpr int kFlightRingCapacity = 1024;
}  // namespace

Cluster::Cluster(const RuntimeOptions& options,
                 std::vector<Executor*> silo_executors,
                 Executor* client_executor, SystemKv* system_kv)
    : options_(options),
      silo_executors_(std::move(silo_executors)),
      client_executor_(client_executor),
      system_kv_(system_kv),
      tracer_(options.num_silos, options.trace.sample_every,
              options.trace.ring_capacity, &metrics_),
      flight_(options.num_silos, options.observability.enable_flight_recorder,
              kFlightRingCapacity, &metrics_),
      directory_(options.num_silos, options.default_placement,
                 options.seed ^ 0x5a5a5a5aULL),
      network_(options.network, options.seed ^ 0xc3c3c3c3ULL),
      reminders_(this, system_kv),
      controller_(this) {
  assert(static_cast<int>(silo_executors_.size()) == options.num_silos);
  dead_letters_ = metrics_.GetCounter("cluster.dead_letters");
  auto_evictions_ = metrics_.GetCounter("cluster.auto_evictions");
  failover_resubmitted_ = metrics_.GetCounter("cluster.failover_resubmitted");
  failover_failed_ = metrics_.GetCounter("cluster.failover_failed");
  deadline_timeouts_ = metrics_.GetCounter("cluster.deadline_timeouts");
  no_live_silo_rejects_ = metrics_.GetCounter("cluster.no_live_silo_rejects");
  local_closure_sends_ = metrics_.GetCounter("wire.local_closure_sends");
  wire_requests_ = metrics_.GetCounter("wire.requests");
  wire_request_bytes_ = metrics_.GetCounter("wire.request_bytes");
  wire_replies_ = metrics_.GetCounter("wire.replies");
  wire_reply_bytes_ = metrics_.GetCounter("wire.reply_bytes");
  wire_decode_failures_ = metrics_.GetCounter("wire.decode_failures");
  wire_unregistered_sends_ = metrics_.GetCounter("wire.unregistered_sends");
  directory_.BindMetrics(&metrics_);
  if (client_executor_->MeasuresTaskCost()) {
    const int nodes = options.num_silos + 1;
    links_.resize(static_cast<size_t>(nodes) * nodes);
    for (int from = 0; from < nodes; ++from) {
      for (int to = 0; to < nodes; ++to) {
        if (from == to) continue;
        links_[from * nodes + to] =
            std::make_unique<Link>(ExecutorFor(static_cast<SiloId>(to - 1)));
      }
    }
  }
  silos_.reserve(options.num_silos);
  for (int i = 0; i < options.num_silos; ++i) {
    silos_.push_back(
        std::make_unique<Silo>(static_cast<SiloId>(i), this,
                               silo_executors_[i]));
  }
  if (options_.membership.enable) {
    membership_ = std::make_unique<MembershipService>(this, system_kv_);
    membership_->Start();
  }
}

Cluster::~Cluster() { Stop(); }

void Cluster::RegisterActorType(const std::string& type,
                                ActorFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  ActorType& record = types_[type];
  record.factory = std::move(factory);
  record.mailbox_depth = metrics_.GetGauge("mailbox.depth." + type);
  record.queue_wait = metrics_.GetHistogram("turn.queue_wait_us." + type);
  record.turn_exec = metrics_.GetHistogram("turn.exec_us." + type);
}

const ActorType* Cluster::FindActorType(const std::string& type) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = types_.find(type);
  return it == types_.end() ? nullptr : &it->second;
}

void Cluster::SetTypePlacement(const std::string& type, Placement placement) {
  directory_.SetTypePlacement(type, placement);
}

void Cluster::RegisterStateStorage(const std::string& name,
                                   std::shared_ptr<StateStorage> storage) {
  storage->BindMetrics(&metrics_);
  std::lock_guard<std::mutex> lock(mu_);
  storages_[name] = std::move(storage);
}

StateStorage* Cluster::GetStateStorage(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = storages_.find(name);
  return it == storages_.end() ? nullptr : it->second.get();
}

void Cluster::Send(Envelope env) {
  SiloId from = env.caller_silo;
  Micros now = ExecutorFor(from)->clock()->Now();
  if (env.deadline_us > 0 && now > env.deadline_us) {
    // Already past its deadline (e.g. a failover re-submission after a long
    // backoff): don't put it on the wire at all.
    NoteDeadlineExpired();
    flight_.Record(FlightEventType::kDeadlineTimeout, from,
                   env.target.ToString(), env.trace.trace_id,
                   now - env.deadline_us, now);
    if (env.trace.sampled) {
      AODB_LOG(Warn, "dropping expired send to %s (trace %llu)",
               env.target.ToString().c_str(),
               static_cast<unsigned long long>(env.trace.trace_id));
    }
    if (env.fail) env.fail(Status::Timeout("deadline expired before send"));
    return;
  }
  SiloId target = directory_.LookupOrPlace(env.target, env.caller_silo);
  if (target == kNoSilo) {
    // Placement found no live silo anywhere. Fail fast (retries may find a
    // rejoined cluster); nothing was cached, so the next attempt re-places.
    no_live_silo_rejects_->Add();
    AODB_LOG(Warn, "no live silo to place %s on",
             env.target.ToString().c_str());
    if (env.fail) {
      env.fail(Status::Unavailable("no live silo in cluster"));
    } else {
      dead_letters_->Add();
    }
    return;
  }
  Silo* silo = silos_[target].get();
  if (!silo->alive()) {
    // Stale route to a crashed silo: drop the registration so the next
    // attempt re-places on a live node, and fail fast like a refused
    // connection so the caller's retry policy can kick in.
    directory_.Remove(env.target, target);
    if (env.fail) env.fail(Status::Unavailable("silo down"));
    return;
  }
  if (from == target) {
    // Same-silo fast path: the closure lane passes pointers — no
    // serialization, no network model.
    local_closure_sends_->Add();
    silo->Deliver(std::move(env));
    return;
  }
  if (network_.Partitioned(from, target)) {
    // The directed link is severed: the connection attempt fails at the
    // sender. Callers retry (and may be re-placed); tells are lost, as on a
    // black-holing route.
    if (env.fail) env.fail(Status::Unavailable("link partitioned"));
    return;
  }
  FaultInjector* injector = fault_injector();
  if (injector != nullptr && injector->ShouldDropMessage()) {
    // Lost on the wire. The sender sees the transport-level failure
    // (Unavailable) rather than hanging forever; fire-and-forget tells
    // vanish silently, as on a real network.
    if (env.fail) env.fail(Status::Unavailable("message lost"));
    return;
  }
  bool duplicate =
      injector != nullptr && injector->ShouldDuplicateMessage();
  if (env.wire == nullptr || !env.wire_encode_args) {
    // A network cannot ship a closure: a remote send is a wire frame or
    // nothing, so a method without a MethodRegistry registration fails at
    // its first cross-node use. A caller that keeps retrying is counted,
    // not logged again.
    wire_unregistered_sends_->Add();
    bool first;
    {
      std::lock_guard<std::mutex> lock(unregistered_logged_mu_);
      first = unregistered_logged_.insert(env.target.type).second;
    }
    if (first) {
      AODB_LOG(Error, "cross-silo send to %s has no wire registration",
               env.target.ToString().c_str());
    }
    if (env.fail) {
      env.fail(Status::FailedPrecondition(
          "no wire registration for cross-silo call to actor type " +
          env.target.type));
    }
    return;
  }
  SendWire(std::move(env), from, target, duplicate);
}

void Cluster::SendWire(Envelope env, SiloId from, SiloId target,
                       bool duplicate) {
  if (options_.membership.enable && env.on_wire_reply) {
    // Track the call so eviction of the target silo can fail it over. The
    // stored copy keeps the ORIGINAL reply handler: a re-submission goes
    // through SendWire again and is wrapped with a fresh call id.
    uint64_t call_id =
        next_call_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    PendingCall pending;
    pending.env = env;
    pending.target = target;
    pending.call_id = call_id;
    pending.idempotent = env.wire->idempotent;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_calls_.emplace(call_id, std::move(pending));
    }
    WireReplyHandler inner = std::move(env.on_wire_reply);
    Cluster* self = this;
    env.on_wire_reply = [self, call_id, inner](Result<std::string>&& r) {
      // No-op if failover already took ownership of this call (the target
      // was evicted and the call re-submitted or failed).
      if (!self->TakePendingCall(call_id)) return;
      inner(std::move(r));
    };
  }
  WireRequest req;
  req.target = env.target;
  req.principal = env.principal;
  req.method_id = env.wire->id;
  req.cost_us = env.cost_us;
  req.deadline_us = env.deadline_us;
  req.priority = static_cast<uint8_t>(env.priority);
  req.trace_id = env.trace.trace_id;
  req.parent_span_id = env.trace.span_id;
  req.trace_sampled = env.trace.sampled;
  req.args = env.wire_encode_args();
  auto frame = std::make_shared<std::string>(WireEncodeRequest(req));
  if (FaultInjector* injector = fault_injector()) {
    injector->MaybeCorruptFrame(frame.get());
  }
  // The measured frame size is what the network model charges transfer
  // time for.
  int64_t bytes = static_cast<int64_t>(frame->size());
  wire_requests_->Add();
  wire_request_bytes_->Add(bytes);
  Executor* exec = silo_executors_[target];
  Cluster* self = this;
  WireReplyHandler reply = std::move(env.on_wire_reply);
  auto deliver = [self, target, from, frame, reply] {
    self->DeliverWireFrame(target, from, frame, reply);
  };
  // A reorder hold-back is added after the FIFO slot is claimed, so
  // fresher frames overtake this one.
  FaultInjector* injector = fault_injector();
  Micros reorder_us = injector != nullptr ? injector->NextReorderDelay() : 0;
  if (duplicate) {
    // Retransmission anomaly: the same frame arrives twice, the method runs
    // twice, and the duplicate reply is dropped by the caller's promise
    // (first fulfillment wins; see PromiseDuplicatesDropped). The duplicate
    // draws its own hold-back so it can arrive well after the original (and
    // after the actor it re-targets has idled out) — stale mail against a
    // moved-on directory.
    Micros dup_reorder_us =
        injector != nullptr ? injector->NextDuplicateLag() : 0;
    Micros dup_arrival =
        network_.FifoArrival(from, target, bytes, exec->clock()->Now());
    Transmit(from, target, dup_arrival + dup_reorder_us, deliver);
  }
  Micros arrival =
      network_.FifoArrival(from, target, bytes, exec->clock()->Now());
  Transmit(from, target, arrival + reorder_us, deliver);
}

void Cluster::DeliverWireFrame(SiloId target, SiloId caller_silo,
                               std::shared_ptr<const std::string> frame,
                               WireReplyHandler reply) {
  auto req = std::make_shared<WireRequest>();
  Status st = WireDecodeRequest(*frame, req.get());
  const WireMethodEntry* entry = nullptr;
  if (st.ok()) {
    entry = MethodRegistry::Global().FindEntry(req->target.type,
                                               req->method_id);
    if (entry == nullptr) {
      st = Status::FailedPrecondition(
          "no wire method registered for type " + req->target.type + " (id " +
          std::to_string(req->method_id) + ")");
    }
  }
  if (!st.ok()) {
    wire_decode_failures_->Add();
    AODB_LOG(Warn, "wire request rejected: %s", st.ToString().c_str());
    if (reply) {
      // The receiver cannot even parse the request, so the error reply is
      // the type-erased branch of the Result encoding.
      BufWriter w;
      WireEncodeResult<Unit>(&w, Result<Unit>::FromError(st));
      SendWireReply(target, caller_silo, reply, w.Release());
    }
    return;
  }
  Silo* silo = silos_[target].get();
  Envelope env;
  env.target = req->target;
  env.caller_silo = caller_silo;
  env.principal = req->principal;
  env.cost_us = req->cost_us + options_.network.serialization_cost_us;
  env.deadline_us = req->deadline_us;
  env.priority = static_cast<MessagePriority>(req->priority);
  env.trace.trace_id = req->trace_id;
  env.trace.span_id = req->parent_span_id;
  env.trace.sampled = req->trace_sampled;
  // Keep the wire capability on the dispatch envelope: if the silo reroutes
  // it (deactivation race, crash), the resend goes out as a frame again,
  // from the cached argument payload.
  env.wire = &entry->info;
  auto args = std::make_shared<const std::string>(std::move(req->args));
  env.wire_encode_args = [args] { return *args; };
  env.on_wire_reply = reply;
  Cluster* self = this;
  env.fn = [self, entry, args, reply, caller_silo](ActorBase& base) {
    SiloId here = base.ctx().silo();
    WireReplyFn send_reply;
    if (reply) {
      send_reply = [self, here, caller_silo, reply](std::string payload) {
        self->SendWireReply(here, caller_silo, reply, std::move(payload));
      };
    }
    BufReader r(*args);
    entry->invoke(base, r, send_reply);
  };
  if (reply) {
    env.fail = [reply](const Status& fail_st) {
      reply(Result<std::string>::FromError(fail_st));
    };
  }
  silo->Deliver(std::move(env));
}

void Cluster::SendWireReply(SiloId from, SiloId to,
                            const WireReplyHandler& reply,
                            std::string result_payload) {
  std::string frame = WireEncodeReply(std::move(result_payload));
  if (FaultInjector* injector = fault_injector()) {
    if (from != to) injector->MaybeCorruptFrame(&frame);
  }
  int64_t bytes = static_cast<int64_t>(frame.size());
  wire_replies_->Add();
  wire_reply_bytes_->Add(bytes);
  auto deliver = [reply, frame = std::move(frame)]() mutable {
    reply(Result<std::string>(std::move(frame)));
  };
  if (from == to) {
    // The dispatch envelope was rerouted onto the caller's own silo.
    deliver();
    return;
  }
  if (network_.Partitioned(from, to)) {
    // Asymmetric partition: the request got through but the reply path is
    // severed, so the reply vanishes silently and the caller's deadline
    // watchdog is what surfaces the failure — exactly the half-open
    // connection shape symmetric faults cannot produce.
    return;
  }
  Micros arrival =
      network_.FifoArrival(from, to, bytes, ExecutorFor(to)->clock()->Now());
  Transmit(from, to, arrival, std::move(deliver));
}

void Cluster::Transmit(SiloId from, SiloId to, Micros due,
                       std::function<void()> fn) {
  if (links_.empty()) {
    ExecutorFor(to)->PostAt(due, std::move(fn));
    return;
  }
  const size_t nodes = silos_.size() + 1;
  links_[(from + 1) * nodes + (to + 1)]->Push(due, std::move(fn));
}

MetricsSnapshot Cluster::SnapshotMetrics() const {
  // Refresh point-in-time runtime gauges before exporting. GetGauge is
  // logically const registration (the registry is this cluster's own).
  MetricsRegistry& reg = const_cast<MetricsRegistry&>(metrics_);
  reg.GetGauge("cluster.activations")
      ->Set(static_cast<int64_t>(TotalActivations()));
  reg.GetGauge("cluster.messages_processed")->Set(TotalMessagesProcessed());
  ExecutorStats ex;
  for (Executor* e : silo_executors_) {
    ExecutorStats s = e->Stats();
    ex.tasks_run += s.tasks_run;
    ex.busy_us += s.busy_us;
    ex.steals += s.steals;
    ex.parks += s.parks;
    ex.queue_depth += s.queue_depth;
  }
  reg.GetGauge("executor.tasks_run")->Set(ex.tasks_run);
  reg.GetGauge("executor.busy_us")->Set(ex.busy_us);
  reg.GetGauge("executor.steals")->Set(ex.steals);
  reg.GetGauge("executor.parks")->Set(ex.parks);
  reg.GetGauge("executor.queue_depth")->Set(ex.queue_depth);
  directory_.PublishPartitionGauges();
  return metrics_.Snapshot();
}

Status Cluster::CheckWireRegistry() const {
  std::vector<std::string> uncovered;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [type, record] : types_) {
      if (MethodRegistry::Global().MethodCount(type) == 0) {
        uncovered.push_back(type);
      }
    }
  }
  if (uncovered.empty()) return Status::OK();
  std::sort(uncovered.begin(), uncovered.end());
  std::string joined;
  for (const std::string& type : uncovered) {
    if (!joined.empty()) joined += ", ";
    joined += type;
  }
  return Status::FailedPrecondition(
      "actor types with no wire-registered methods: " + joined);
}

// --- Lifecycle ---------------------------------------------------------------

void Cluster::StartIdleScanner() {
  if (!options_.lifecycle.enable_idle_deactivation) return;
  const Micros timeout = options_.lifecycle.idle_timeout_us;
  std::lock_guard<std::mutex> lock(mu_);
  idle_scanners_.clear();
  for (auto& silo : silos_) {
    Silo* s = silo.get();
    idle_scanners_.emplace_back().Start(
        s->executor(), options_.lifecycle.scan_interval_us,
        [s, timeout] { s->SweepIdle(timeout); });
  }
}

void Cluster::StartMetricsSampler() {
  Micros interval = options_.observability.metrics_sample_interval_us;
  if (interval <= 0) return;
  // The sampler ticks on the client-node executor (cluster-wide, off the
  // silo hot paths).
  std::lock_guard<std::mutex> lock(mu_);
  sampler_.Start(client_executor_, interval, [this] {
    timeline_.Record(clock()->Now(), SnapshotMetrics());
  });
}

std::string Cluster::BuildPostmortemJson(const std::string& reason) const {
  Micros now = client_executor_->clock()->Now();
  std::string out = "{\"schema\":\"aodb.postmortem.v1\",";
  out += "\"reason\":\"" + JsonEscape(reason) + "\",";
  out += "\"at_us\":" + std::to_string(now) + ",";
  out += "\"membership\":[";
  for (int i = 0; i < static_cast<int>(silos_.size()); ++i) {
    if (i > 0) out += ',';
    Silo* s = silos_[i].get();
    out += "{\"silo\":" + std::to_string(i);
    out += std::string(",\"alive\":") + (s->alive() ? "true" : "false");
    out += std::string(",\"wedged\":") + (s->wedged() ? "true" : "false");
    if (membership_) {
      out += ",\"incarnation\":" + std::to_string(membership_->Incarnation(i));
      out +=
          ",\"suspicions\":" + std::to_string(membership_->SuspicionCount(i));
      auto lease = membership_->ReadLease(i);
      if (lease.ok()) {
        out +=
            ",\"lease_expiry_us\":" + std::to_string(lease.value().expiry_us);
      }
    }
    out += '}';
  }
  out += "],\"hot_actors\":[";
  for (int i = 0; i < static_cast<int>(silos_.size()); ++i) {
    if (i > 0) out += ',';
    Silo* s = silos_[i].get();
    out += "{\"silo\":" + std::to_string(i);
    out += ",\"queued\":" + std::to_string(s->QueuedEnvelopes());
    out += ",\"activations\":" + std::to_string(s->ActivationCount());
    out += ",\"top\":[";
    std::vector<Silo::HotActivation> top = s->TopActivations(8);
    for (size_t k = 0; k < top.size(); ++k) {
      if (k > 0) out += ',';
      out += "{\"actor\":\"" + JsonEscape(top[k].id.ToString()) +
             "\",\"depth\":" + std::to_string(top[k].depth) + "}";
    }
    out += "]}";
  }
  out += "],\"flight_events\":";
  FlightRecorder::AppendEventsJson(flight_.Collect(), &out);
  out += ",\"metrics_timeline\":" + timeline_.ToJson();
  out += ",\"metrics\":" + SnapshotMetrics().ToJson();
  out += ",\"traces\":" + tracer_.DumpJson();
  out += '}';
  return out;
}

Status Cluster::DumpPostmortem(const std::string& path,
                               const std::string& reason) const {
  std::string bundle = BuildPostmortemJson(reason);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot write postmortem bundle to " + path);
  }
  size_t n = std::fwrite(bundle.data(), 1, bundle.size(), f);
  std::fclose(f);
  if (n != bundle.size()) {
    return Status::IoError("short write of postmortem bundle to " + path);
  }
  AODB_LOG(Warn, "postmortem bundle written to %s (%s)", path.c_str(),
           reason.c_str());
  return Status::OK();
}

Status Cluster::MigrateActivation(const ActorId& id, SiloId to) {
  if (to < 0 || to >= num_silos() || !silos_[to]->alive()) {
    return Status::InvalidArgument("migration target silo is not live");
  }
  std::optional<SiloId> hosted = directory_.Lookup(id);
  if (!hosted) return Status::NotFound("actor has no activation");
  if (*hosted == to) return Status::OK();
  if (!silos_[*hosted]->RequestMigration(id, to)) {
    return Status::Aborted("activation is loading or already deactivating");
  }
  return Status::OK();
}

Future<Status> Cluster::DeactivateAll() {
  std::vector<Future<Status>> futures;
  futures.reserve(silos_.size());
  for (auto& silo : silos_) futures.push_back(silo->DeactivateAll());
  Promise<Status> done;
  WhenAll(futures).OnReady(
      [done](Result<std::vector<Result<Status>>>&& r) {
        if (!r.ok()) {
          done.SetValue(r.status());
          return;
        }
        for (auto& st : r.value()) {
          Status s = st.ok() ? st.value() : st.status();
          if (!s.ok()) {
            done.SetValue(s);
            return;
          }
        }
        done.SetValue(Status::OK());
      });
  return done.GetFuture();
}

// --- Fault injection ---------------------------------------------------------

void Cluster::KillSilo(SiloId id) {
  if (id < 0 || id >= num_silos()) return;
  EvictInternal(id, "announced kill", /*automatic=*/false);
}

void Cluster::EvictSilo(SiloId id, const std::string& reason) {
  if (id < 0 || id >= num_silos()) return;
  EvictInternal(id, reason, /*automatic=*/true);
}

void Cluster::EvictInternal(SiloId id, const std::string& reason,
                            bool automatic) {
  std::lock_guard<std::mutex> lock(evict_mu_);
  if (!silos_[id]->alive()) return;
  AODB_LOG(Warn, "%s silo %d (%s)", automatic ? "evicting" : "killing",
           static_cast<int>(id), reason.c_str());
  flight_.Record(FlightEventType::kEvict, id, reason, /*trace_id=*/0,
                 /*detail=*/automatic ? 1 : 0, clock()->Now());
  // Order matters: stop placing on the silo, then purge its registrations
  // (so no new route can observe the dead silo through a fresh directory
  // entry), then fail over pending calls, and only THEN fail its queued
  // work — the queued-work Unavailable completions find their pending
  // entries already taken and cannot race the failover re-submissions for
  // the callers' promises.
  directory_.SetSiloLive(id, false);
  directory_.PurgeSilo(id);
  FailoverPendingCalls(id);
  int64_t dead = silos_[id]->Kill();
  if (dead > 0) {
    dead_letters_->Add(dead);
    AODB_LOG(Warn,
             "silo %d eviction dropped %lld envelope(s) with no failure "
             "hook (dead letters)",
             static_cast<int>(id), static_cast<long long>(dead));
  }
  if (automatic) {
    auto_evictions_->Add();
  } else if (FaultInjector* injector = fault_injector()) {
    injector->RecordKill();
  }
  if (membership_) membership_->NoteEvicted(id);
}

bool Cluster::TakePendingCall(uint64_t call_id) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return pending_calls_.erase(call_id) > 0;
}

void Cluster::FailoverPendingCalls(SiloId dead) {
  std::vector<PendingCall> victims;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (auto it = pending_calls_.begin(); it != pending_calls_.end();) {
      if (it->second.target == dead) {
        victims.push_back(std::move(it->second));
        it = pending_calls_.erase(it);
      } else {
        ++it;
      }
    }
  }
  const RetryPolicy& policy = options_.membership.failover;
  for (auto& pc : victims) {
    Envelope env = std::move(pc.env);
    std::optional<Micros> backoff;
    if (pc.idempotent) {
      ++env.failover_attempts;
      // Replay the policy's (seeded, jittered) backoff sequence up to this
      // attempt; nullopt once the attempt cap is hit.
      RetryState retry(policy, options_.seed ^ (pc.call_id * 0x9e3779b97fULL));
      for (int a = 0; a < env.failover_attempts; ++a) {
        backoff = retry.NextBackoff(0);
        if (!backoff) break;
      }
    }
    Executor* exec = ExecutorFor(env.caller_silo);
    if (backoff) {
      failover_resubmitted_->Add();
      flight_.Record(FlightEventType::kFailoverResubmit, dead,
                     env.target.ToString(), env.trace.trace_id,
                     env.failover_attempts, clock()->Now());
      AODB_LOG(Info,
               "failing over idempotent call to %s (attempt %d, backoff "
               "%lld us, trace %llu)",
               env.target.ToString().c_str(), env.failover_attempts,
               static_cast<long long>(*backoff),
               static_cast<unsigned long long>(env.trace.trace_id));
      Cluster* self = this;
      exec->PostAfter(*backoff, [self, env = std::move(env)]() mutable {
        self->Send(std::move(env));
      });
    } else {
      failover_failed_->Add();
      flight_.Record(FlightEventType::kFailoverFailed, dead,
                     env.target.ToString(), env.trace.trace_id,
                     env.failover_attempts, clock()->Now());
      Status st = Status::Unavailable(
          pc.idempotent
              ? "silo evicted; failover retries exhausted"
              : "silo evicted with non-idempotent call in flight");
      // Fail on the caller's executor, not inline: promise continuations
      // run arbitrary user code that must not execute under evict_mu_.
      auto fail = std::move(env.fail);
      if (fail) {
        exec->Post(Task{[fail = std::move(fail), st] { fail(st); }, 0});
      }
    }
  }
}

void Cluster::RestartSilo(SiloId id) {
  if (id < 0 || id >= num_silos() || silos_[id]->alive()) return;
  AODB_LOG(Info, "restarting silo %d", static_cast<int>(id));
  flight_.Record(FlightEventType::kRestart, id, "", /*trace_id=*/0,
                 /*detail=*/0, clock()->Now());
  silos_[id]->Restart();
  directory_.SetSiloLive(id, true);
  if (membership_) membership_->NoteRestarted(id);
  if (FaultInjector* injector = fault_injector()) injector->RecordRestart();
}

bool Cluster::SiloAlive(SiloId id) const {
  return id >= 0 && id < static_cast<int>(silos_.size()) &&
         silos_[id]->alive();
}

void Cluster::Stop() {
  int64_t leaked = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    // Promise-leak audit: promises that died unfulfilled with a waiting
    // continuation during this cluster's lifetime. Non-zero means some path
    // dropped a reply handler without completing it — the hang-forever bug
    // class the deadline watchdogs exist to paper over.
    leaked = PromisesLeaked() - promise_leak_baseline_;
    metrics_.GetGauge("runtime.leaked_promises")->Set(leaked);
    if (leaked > 0) {
      AODB_LOG(Warn, "%lld promise(s) leaked during this cluster's lifetime",
               static_cast<long long>(leaked));
    }
    idle_scanners_.clear();
    sampler_.Cancel();
  }
  reminders_.Stop();
  controller_.Stop();
  if (membership_) membership_->Stop();
  if (leaked > 0 && !options_.observability.postmortem_path.empty()) {
    // A leak is exactly the failure the flight recorder exists for: ship
    // the black box. Runs after mu_ is released (bundle building takes
    // silo/activation locks) and after background agents are stopped.
    Status st = DumpPostmortem(
        options_.observability.postmortem_path,
        "cluster stopped with " + std::to_string(leaked) +
            " leaked promise(s)");
    if (!st.ok()) {
      AODB_LOG(Warn, "postmortem dump failed: %s", st.ToString().c_str());
    }
  }
}

size_t Cluster::TotalActivations() const {
  size_t total = 0;
  for (const auto& silo : silos_) total += silo->ActivationCount();
  return total;
}

int64_t Cluster::TotalMessagesProcessed() const {
  int64_t total = 0;
  for (const auto& silo : silos_) total += silo->Stats().messages_processed;
  return total;
}

// --- RealClusterHandle -------------------------------------------------------

RealClusterHandle::RealClusterHandle(const RuntimeOptions& options,
                                     SystemKv* system_kv) {
  std::vector<Executor*> execs;
  for (int i = 0; i < options.num_silos; ++i) {
    executors_.push_back(
        std::make_unique<ThreadPoolExecutor>(options.workers_per_silo));
    execs.push_back(executors_.back().get());
  }
  client_executor_ = std::make_unique<ThreadPoolExecutor>(2);
  cluster_ = std::make_unique<Cluster>(options, std::move(execs),
                                       client_executor_.get(), system_kv);
}

RealClusterHandle::~RealClusterHandle() { Shutdown(); }

void RealClusterHandle::Shutdown() {
  if (cluster_) cluster_->Stop();
  for (auto& e : executors_) {
    static_cast<ThreadPoolExecutor*>(e.get())->Shutdown();
  }
  if (client_executor_) {
    static_cast<ThreadPoolExecutor*>(client_executor_.get())->Shutdown();
  }
}

}  // namespace aodb
