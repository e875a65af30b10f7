#include "actor/silo.h"

#include <algorithm>
#include <cassert>

#include "actor/cluster.h"
#include "actor/method_registry.h"
#include "common/logging.h"
#include "common/telemetry.h"

namespace aodb {

namespace {
/// Simulated CPU cost of constructing an activation / running lifecycle
/// hooks (state I/O is charged separately by the storage provider).
constexpr Micros kLifecycleCostUs = 50;
/// Back-off before re-routing a message that raced with a deactivation.
constexpr Micros kRerouteDelayUs = 50;
}  // namespace

Silo::Silo(SiloId id, Cluster* cluster, Executor* executor)
    : id_(id),
      cluster_(cluster),
      executor_(executor),
      // The simulator charges each task's declared cost up front, so one
      // task must stay one envelope there or virtual-time results change.
      turn_batch_(executor->MeasuresTaskCost()
                      ? std::max(1, cluster->options().max_turn_batch)
                      : 1),
      shed_watermark_(cluster->options().overload.shed_watermark),
      shed_hard_watermark_(
          cluster->options().overload.shed_hard_watermark > 0
              ? cluster->options().overload.shed_hard_watermark
              : 2 * cluster->options().overload.shed_watermark),
      max_resident_(cluster->options().max_resident_activations),
      max_mailbox_depth_(cluster->options().overload.max_mailbox_depth),
      shed_telemetry_(
          cluster->metrics().GetCounter("overload.shed.telemetry")),
      shed_query_(cluster->metrics().GetCounter("overload.shed.query")),
      mailbox_rejects_(
          cluster->metrics().GetCounter("overload.mailbox_rejects")),
      migrations_(cluster->metrics().GetCounter("overload.migrations")),
      paged_out_(cluster->metrics().GetCounter("activation.paged_out")),
      faults_(cluster->metrics().GetCounter("activation.fault.count")),
      fault_load_(
          cluster->metrics().GetHistogram("activation.fault.load_us")),
      fault_wait_(cluster->metrics().GetHistogram(
          "activation.fault.queue_wait_us")) {}

void Silo::Deliver(Envelope env) {
  if (!alive()) {
    // Message raced with (or arrived after) a crash: the sender observes a
    // broken connection. Calls fail fast and may retry; tells are lost.
    if (env.fail) env.fail(Status::Unavailable("silo down"));
    return;
  }
  env.enqueue_us = executor_->clock()->Now();
  if (wedged()) {
    // Unannounced hang: the message is accepted and then nothing happens.
    // The caller sees pure silence — exactly the partial failure that
    // lease-based membership exists to bound.
    std::lock_guard<std::mutex> lock(mu_);
    wedge_backlog_.push_back(std::move(env));
    return;
  }
  if (shed_watermark_ > 0 && env.priority != MessagePriority::kControl) {
    // Silo-wide load shedding, lowest priority class first: telemetry
    // ingest at the soft watermark, interactive queries only past the hard
    // one, control traffic (workflows, 2PC, lifecycle) never. The sender
    // sees Overloaded — retryable with backoff, no failover re-placement.
    int64_t queued = queued_.load(std::memory_order_relaxed);
    int64_t mark = env.priority == MessagePriority::kTelemetry
                       ? shed_watermark_
                       : shed_hard_watermark_;
    if (queued >= mark) {
      (env.priority == MessagePriority::kTelemetry ? shed_telemetry_
                                                   : shed_query_)
          ->Add();
      cluster_->flight_recorder().Record(FlightEventType::kShed, id_,
                                         env.target.ToString(),
                                         env.trace.trace_id, queued,
                                         env.enqueue_us);
      if (env.trace.sampled) {
        AODB_LOG(Warn,
                 "silo %d shedding %s send to %s (%lld queued, trace %llu)",
                 static_cast<int>(id_),
                 env.priority == MessagePriority::kTelemetry ? "telemetry"
                                                             : "query",
                 env.target.ToString().c_str(),
                 static_cast<long long>(queued),
                 static_cast<unsigned long long>(env.trace.trace_id));
      }
      if (env.fail) {
        env.fail(Status::Overloaded("silo " + std::to_string(id_) +
                                    " shedding load"));
      }
      return;
    }
  }
  ActivationPtr act;
  bool is_new = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = catalog_.find(env.target);
    if (it != catalog_.end()) act = it->second;
  }
  if (!act) {
    // No activation here: only create one if the directory still says this
    // silo owns the actor. Mail can arrive after a migration or idle
    // deactivation already erased the activation (it was routed before the
    // directory moved); resurrecting a second activation here would
    // split-brain the actor's state, so stale mail re-routes instead. A
    // PAGED entry pointing here is the exception: the actor is registered
    // but cold (working-set eviction kept its registration), so this create
    // is a measured activation fault, not stale mail.
    auto owner = cluster_->directory().LookupEntry(env.target);
    if (!owner.has_value() || owner->silo != id_) {
      Reroute(std::move(env));
      return;
    }
    // Resolve the type record outside mu_ (it takes the cluster's lock);
    // the emplace re-checks for a racing creator.
    auto fresh = std::make_shared<Activation>(
        env.target, cluster_->FindActorType(env.target.type));
    if (owner->paged) {
      fresh->fault_in = true;
      fresh->fault_start_us = env.enqueue_us;
    }
    bool evict_needed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto [it, inserted] = catalog_.emplace(env.target, fresh);
      act = it->second;
      if (inserted) {
        ++stats_.activations_created;
        is_new = true;
        LruPushBackLocked(act);
        evict_needed = max_resident_ > 0 && ResidentLocked() > max_resident_;
      }
    }
    if (is_new) {
      if (owner->paged) {
        // Only the winning creator clears the paged flag and counts the
        // fault; BeginActivate stamps the load latency once OnActivate's
        // storage read completes.
        cluster_->directory().ClearPaged(env.target, id_);
        faults_->Add();
      }
      if (evict_needed) MaybeScheduleEviction();
    }
  }
  bool schedule = false;
  bool reroute = false;
  bool mailbox_full = false;
  int64_t depth = 0;
  Micros cost = 0;
  {
    std::lock_guard<std::mutex> lock(act->mu);
    switch (act->state) {
      case ActState::kClosed:
        reroute = true;
        break;
      case ActState::kDeactivating:
        // Queued; re-routed when the deactivation completes. Falls under
        // the same bound as the live states below.
      case ActState::kLoading:
      case ActState::kScheduled:
      case ActState::kRunning:
        if (max_mailbox_depth_ > 0 &&
            static_cast<int>(act->mailbox.size()) >= max_mailbox_depth_) {
          // Bounded mailbox: reject instead of queueing without limit. The
          // caller's retry policy backs off and re-sends to the SAME
          // placement once the actor drains.
          mailbox_full = true;
          depth = static_cast<int64_t>(act->mailbox.size());
          break;
        }
        act->mailbox.push_back(std::move(env));
        CountQueued(*act, 1);
        break;
      case ActState::kIdle:
        assert(act->mailbox.empty());
        cost = env.cost_us;
        act->mailbox.push_back(std::move(env));
        CountQueued(*act, 1);
        act->state = ActState::kScheduled;
        schedule = true;
        break;
    }
  }
  if (mailbox_full) {
    mailbox_rejects_->Add();
    cluster_->flight_recorder().Record(FlightEventType::kMailboxReject, id_,
                                       env.target.ToString(),
                                       env.trace.trace_id, depth,
                                       env.enqueue_us);
    if (env.trace.sampled) {
      AODB_LOG(Warn,
               "mailbox full for %s on silo %d (depth %lld, trace %llu)",
               env.target.ToString().c_str(), static_cast<int>(id_),
               static_cast<long long>(depth),
               static_cast<unsigned long long>(env.trace.trace_id));
    }
    if (env.fail) {
      env.fail(Status::Overloaded("mailbox full for " +
                                  env.target.ToString()));
    }
    return;
  }
  if (reroute) {
    Reroute(std::move(env));
    return;
  }
  if (is_new) BeginActivate(act);
  if (schedule) PostTurn(act, cost);
}

void Silo::BeginActivate(const ActivationPtr& act) {
  executor_->Post(Task{
      [this, act] {
        auto fail_all = [this, act](const Status& st) {
          std::deque<Envelope> pending;
          {
            std::lock_guard<std::mutex> lock(act->mu);
            act->state = ActState::kClosed;
            pending.swap(act->mailbox);
          }
          CountQueued(*act, -static_cast<int64_t>(pending.size()));
          cluster_->directory().Remove(act->id, id_);
          {
            std::lock_guard<std::mutex> lock(mu_);
            catalog_.erase(act->id);
            LruUnlinkLocked(act);
            ++stats_.activations_removed;
          }
          for (auto& e : pending) {
            if (e.fail) e.fail(st);
          }
        };
        if (act->type == nullptr) {
          AODB_LOG(Error, "no factory for actor type %s",
                   act->id.type.c_str());
          fail_all(Status::InvalidArgument("unregistered actor type: " +
                                           act->id.type));
          return;
        }
        std::unique_ptr<ActorBase> actor = act->type->factory(act->id);
        actor->BindContext(std::make_unique<ActorContext>(
            act->id, id_, cluster_, executor_));
        {
          std::lock_guard<std::mutex> lock(act->mu);
          act->actor = std::move(actor);
        }
        // State I/O inside OnActivate retries under RetryAsync; the flight
        // scope makes an exhausted retry attributable to this silo.
        ScopedFlightScope fscope(&cluster_->flight_recorder(), id_);
        act->actor->OnActivate().OnReady(
            [this, act, fail_all](Result<Status>&& r) {
              Status st = r.ok() ? r.value() : r.status();
              if (!st.ok()) {
                AODB_LOG(Warn, "activation of %s failed: %s",
                         act->id.ToString().c_str(), st.ToString().c_str());
                fail_all(st);
                return;
              }
              bool schedule = false;
              Micros cost = 0;
              Micros now = executor_->clock()->Now();
              {
                std::lock_guard<std::mutex> lock(act->mu);
                // A crash may have closed the activation while OnActivate
                // was in flight; leave it closed (its mailbox was failed).
                if (act->state == ActState::kClosed) return;
                act->last_active.store(now, std::memory_order_relaxed);
                if (!act->mailbox.empty()) {
                  act->state = ActState::kScheduled;
                  cost = act->mailbox.front().cost_us;
                  schedule = true;
                } else {
                  act->state = ActState::kIdle;
                }
              }
              cluster_->flight_recorder().Record(FlightEventType::kActivate,
                                                 id_, act->id.ToString(),
                                                 /*trace_id=*/0, /*detail=*/0,
                                                 now);
              if (act->fault_in) {
                // Cold hit -> storage load complete: the fault's load leg.
                // (The end-to-end queue wait is stamped by the first turn.)
                Micros load_us = now - act->fault_start_us;
                fault_load_->Record(load_us);
                cluster_->flight_recorder().Record(FlightEventType::kFaultIn,
                                                   id_, act->id.ToString(),
                                                   /*trace_id=*/0, load_us,
                                                   now);
              }
              // Loading is over: the activation's recency rank starts now.
              LruTouchThrottled(act, now);
              if (schedule) PostTurn(act, cost);
            });
      },
      kLifecycleCostUs});
}

void Silo::PostTurn(const ActivationPtr& act, Micros cost_us) {
  executor_->Post(Task{[this, act] { RunTurn(act); }, cost_us});
}

void Silo::RunTurn(const ActivationPtr& act) {
  // One posted task drains up to turn_batch_ envelopes: a hot actor pays
  // the executor round-trip (queue push, possible wakeup, dequeue) once per
  // batch rather than once per message. The cap keeps a flooded actor from
  // monopolizing its worker; per-envelope deadline, tracing, and profiling
  // semantics are identical to unbatched processing.
  int64_t processed = 0;
  bool closed = false;
  for (int n = 0; n < turn_batch_; ++n) {
    Envelope env;
    {
      std::lock_guard<std::mutex> lock(act->mu);
      if (n == 0) {
        if (act->state != ActState::kScheduled || act->mailbox.empty()) return;
        act->state = ActState::kRunning;
      } else {
        // Kill() may have closed the activation between envelopes; stop —
        // the mailbox was already failed/drained by the closer.
        if (act->state != ActState::kRunning || act->mailbox.empty()) {
          closed = act->state != ActState::kRunning;
          break;
        }
      }
      env = std::move(act->mailbox.front());
      act->mailbox.pop_front();
      CountQueued(*act, -1);
    }
    ProcessEnvelope(act, env);
    ++processed;
  }
  messages_processed_.fetch_add(processed, std::memory_order_relaxed);
  if (closed) return;
  bool schedule = false;
  bool migrate = false;
  Micros cost = 0;
  {
    std::lock_guard<std::mutex> lock(act->mu);
    // Kill() may have closed the activation while this turn ran (real
    // mode); do not resurrect it to idle.
    if (act->state == ActState::kClosed) return;
    act->last_active.store(executor_->clock()->Now(),
                           std::memory_order_relaxed);
    if (act->migrate_to != kNoSilo) {
      // A migration was requested mid-turn: transition straight from
      // kRunning to kDeactivating (never passing kIdle, so the idle
      // sweeper cannot claim the activation in between). Remaining mailbox
      // entries re-route to the new placement in FinishDeactivation.
      act->state = ActState::kDeactivating;
      migrate = true;
    } else if (!act->mailbox.empty()) {
      act->state = ActState::kScheduled;
      cost = act->mailbox.front().cost_us;
      schedule = true;
    } else {
      act->state = ActState::kIdle;
    }
  }
  if (migrate) {
    FinishDeactivation(act, nullptr);
    return;
  }
  // Splice to the recent end of the LRU; throttled so hot actors do not
  // take the silo-wide lock every turn. The sweep and the paging eviction
  // pass pop victims from the stale front.
  LruTouchThrottled(act, executor_->clock()->Now());
  if (schedule) PostTurn(act, cost);
}

void Silo::ProcessEnvelope(const ActivationPtr& act, Envelope& env) {
  Micros turn_start = executor_->clock()->Now();
  Micros queue_wait = env.enqueue_us > 0 ? turn_start - env.enqueue_us : 0;
  if (act->fault_in) {
    // First turn after an activation fault: this envelope's queue wait is
    // the full caller-visible fault penalty (enqueue -> storage load ->
    // dispatch). Plain field: set before the activation was published,
    // cleared here on the serialized turn path.
    act->fault_in = false;
    fault_wait_->Record(queue_wait);
  }
  bool expired = env.deadline_us > 0 && turn_start > env.deadline_us;
  if (expired) {
    // Too late to be useful: don't burn a turn on work whose caller has
    // already been timed out by the deadline watchdog.
    cluster_->NoteDeadlineExpired();
    int64_t depth = MailboxDepth(act);
    cluster_->flight_recorder().Record(
        FlightEventType::kDeadlineTimeout, id_, env.target.ToString(),
        env.trace.trace_id, turn_start - env.deadline_us, turn_start);
    if (env.trace.sampled) {
      AODB_LOG(Warn,
               "dropping expired turn for %s on silo %d (mailbox depth %lld, "
               "trace %llu)",
               env.target.ToString().c_str(), static_cast<int>(id_),
               static_cast<long long>(depth),
               static_cast<unsigned long long>(env.trace.trace_id));
    }
    if (env.fail) env.fail(Status::Timeout("deadline expired before dispatch"));
  } else {
    act->actor->ctx().caller_ = env.principal;
    // Expose the turn's deadline so nested calls made inside `fn` inherit
    // the caller's remaining budget (save/restore for reentrancy).
    Micros saved_deadline = internal::CurrentTurnDeadline();
    internal::CurrentTurnDeadline() = env.deadline_us;
    // Open a turn span when the message is traced; sends made inside `fn`
    // inherit it as their parent through the thread-local context.
    TraceContext turn_ctx;
    if (env.trace.sampled) {
      turn_ctx.trace_id = env.trace.trace_id;
      turn_ctx.span_id = cluster_->tracer().NewSpanId();
      turn_ctx.sampled = true;
    }
    {
      ScopedTraceContext scope(turn_ctx);
      ScopedFlightScope fscope(&cluster_->flight_recorder(), id_);
      if (env.fn) env.fn(*act->actor);
    }
    internal::CurrentTurnDeadline() = saved_deadline;
    Micros turn_end = executor_->clock()->Now();
    Micros exec_us = turn_end - turn_start;
    act->type->queue_wait->Record(queue_wait);
    act->type->turn_exec->Record(exec_us);
    if (turn_ctx.sampled) {
      SpanRecord rec;
      rec.trace_id = turn_ctx.trace_id;
      rec.span_id = turn_ctx.span_id;
      rec.parent_span_id = env.trace.span_id;
      rec.name = env.wire != nullptr ? env.wire->name : env.target.type;
      rec.actor = env.target.ToString();
      rec.kind = "turn";
      rec.silo = id_;
      rec.start_us = turn_start;
      rec.end_us = turn_end;
      rec.queue_wait_us = queue_wait;
      cluster_->tracer().Record(std::move(rec));
    }
    Micros slow = cluster_->options().slow_turn_threshold_us;
    if (slow > 0 && exec_us >= slow) {
      int64_t depth = MailboxDepth(act);
      cluster_->flight_recorder().Record(FlightEventType::kSlowTurn, id_,
                                         env.target.ToString(),
                                         env.trace.trace_id, exec_us,
                                         turn_end);
      AODB_LOG(Warn,
               "slow turn: %s ran %lld us (threshold %lld us) on silo %d "
               "(mailbox depth %lld, trace %llu)",
               env.target.ToString().c_str(),
               static_cast<long long>(exec_us), static_cast<long long>(slow),
               static_cast<int>(id_), static_cast<long long>(depth),
               static_cast<unsigned long long>(env.trace.trace_id));
    }
  }
}

int Silo::SweepIdle(Micros idle_timeout_us) {
  // The LRU list orders activations by recency (stalest at the front), so
  // the sweep walks from the front and stops at the first fresh entry: cost
  // is O(stale candidates), independent of how many activations are
  // resident. The atomic last-active stamp pre-filters without taking any
  // activation's lock.
  Micros now = executor_->clock()->Now();
  std::vector<ActivationPtr> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& act : lru_) {
      ++stats_.sweep_examined;
      if (now - act->last_active.load(std::memory_order_relaxed) <
          idle_timeout_us) {
        break;
      }
      candidates.push_back(act);
    }
  }
  int initiated = 0;
  for (auto& act : candidates) {
    bool victim = false;
    {
      // Authoritative re-check under the activation's own lock: it may have
      // become active (or started closing) since the snapshot.
      std::lock_guard<std::mutex> lock(act->mu);
      if (act->state == ActState::kIdle && act->mailbox.empty() &&
          now - act->last_active.load(std::memory_order_relaxed) >=
              idle_timeout_us) {
        act->state = ActState::kDeactivating;
        victim = true;
      }
    }
    if (victim) {
      FinishDeactivation(act, nullptr);
      ++initiated;
    }
  }
  return initiated;
}

void Silo::LruTouchThrottled(const ActivationPtr& act, Micros now) {
  constexpr Micros kLruTouchIntervalUs = 100 * kMicrosPerMilli;
  if (now - act->lru_stamp.load(std::memory_order_relaxed) <
      kLruTouchIntervalUs) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  LruTouchLocked(act);
}

void Silo::LruPushBackLocked(const ActivationPtr& act) {
  lru_.push_back(act);
  act->lru_it = std::prev(lru_.end());
  act->in_lru = true;
  act->lru_stamp.store(executor_->clock()->Now(), std::memory_order_relaxed);
}

void Silo::LruTouchLocked(const ActivationPtr& act) {
  if (!act->in_lru) return;
  lru_.splice(lru_.end(), lru_, act->lru_it);
  act->lru_stamp.store(executor_->clock()->Now(), std::memory_order_relaxed);
}

void Silo::LruUnlinkLocked(const ActivationPtr& act) {
  if (!act->in_lru) return;
  lru_.erase(act->lru_it);
  act->in_lru = false;
}

void Silo::MaybeScheduleEviction() {
  if (eviction_scheduled_.exchange(true, std::memory_order_acq_rel)) return;
  // Cost 0: the pass is bookkeeping, not simulated actor work — and paging
  // is off (max_resident_activations = 0) in the virtual-time figure
  // benches, so no eviction task ever posts there.
  executor_->Post(Task{[this] { RunEvictionPass(); }, 0});
}

void Silo::RunEvictionPass() {
  // Re-arm before working: an insert racing this pass either sees the flag
  // still set (this pass will observe its activation) or schedules a fresh
  // pass. Missing a trigger entirely is not possible.
  eviction_scheduled_.store(false, std::memory_order_release);
  if (!alive()) return;
  // Each round either pages one victim out or rotates one busy entry to the
  // recent end; the guard bounds a pass where everything stale is busy.
  constexpr int kMaxRounds = 1024;
  // Hysteresis: once the hard cap trips, drain to a low-water mark a bit
  // below it so one pass (one executor wakeup, one LRU walk) absorbs a
  // burst of faults instead of re-arming per over-cap insert. Zero slack
  // for small caps — tests and DST sweeps keep exact-cap semantics.
  const int64_t slack =
      max_resident_ > 0 ? std::min<int64_t>(max_resident_ / 64, 4096) : 0;
  const int64_t low_water = max_resident_ - slack;
  bool draining = false;
  for (int round = 0; round < kMaxRounds; ++round) {
    ActivationPtr victim;
    {
      std::lock_guard<std::mutex> lock(mu_);
      int64_t resident = ResidentLocked();
      if (max_resident_ > 0 && resident > max_resident_) draining = true;
      if (draining && resident <= low_water) draining = false;
      // Cap satisfied, or nothing left to page out.
      if (!draining || lru_.empty()) return;
      victim = lru_.front();
    }
    bool claimed = false;
    {
      // Same claim as the idle sweeper: only a quiescent activation pages
      // out, so a busy actor is never interrupted mid-turn and the
      // migration/sweep initiators stay mutually exclusive with paging.
      std::lock_guard<std::mutex> lock(victim->mu);
      if (victim->state == ActState::kIdle && victim->mailbox.empty()) {
        victim->state = ActState::kDeactivating;
        victim->page_out = true;
        claimed = true;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (claimed) {
        LruUnlinkLocked(victim);
        ++pending_page_outs_;
        ++stats_.activations_paged_out;
      } else {
        // Busy (or already closing): rotate it to the recent end so the
        // next round looks at the next-oldest instead of spinning here.
        LruTouchLocked(victim);
      }
    }
    if (claimed) FinishDeactivation(victim, nullptr);
  }
}

Future<Status> Silo::DeactivateAll() {
  std::vector<ActivationPtr> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    victims.reserve(catalog_.size());
    for (auto& [id, act] : catalog_) victims.push_back(act);
  }
  std::vector<ActivationPtr> initiated;
  for (auto& act : victims) {
    std::lock_guard<std::mutex> lock(act->mu);
    if (act->state == ActState::kIdle && act->mailbox.empty()) {
      act->state = ActState::kDeactivating;
      initiated.push_back(act);
    }
  }
  if (initiated.empty()) return Future<Status>::FromValue(Status::OK());
  struct Gate {
    std::mutex mu;
    size_t pending;
    Status first_error;
  };
  auto gate = std::make_shared<Gate>();
  gate->pending = initiated.size();
  Promise<Status> done;
  for (auto& act : initiated) {
    FinishDeactivation(act, [gate, done](Status st) {
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(gate->mu);
        if (!st.ok() && gate->first_error.ok()) gate->first_error = st;
        last = (--gate->pending == 0);
      }
      if (last) done.SetValue(gate->first_error);
    });
  }
  return done.GetFuture();
}

int64_t Silo::Kill() {
  alive_.store(false, std::memory_order_release);
  std::vector<ActivationPtr> victims;
  std::deque<Envelope> backlog;
  {
    std::lock_guard<std::mutex> lock(mu_);
    victims.reserve(catalog_.size());
    for (auto& [id, act] : catalog_) victims.push_back(act);
    catalog_.clear();
    for (auto& act : lru_) act->in_lru = false;
    lru_.clear();
    pending_page_outs_ = 0;
    stats_.activations_removed += static_cast<int64_t>(victims.size());
    zombies_.insert(zombies_.end(), victims.begin(), victims.end());
    backlog.swap(wedge_backlog_);
  }
  Status down = Status::Unavailable("silo down");
  int64_t dead_letters = 0;
  Micros now = executor_->clock()->Now();
  // Per-envelope WARNs only for traced drops: the trace id makes the lost
  // work attributable without flooding the log during chaos runs. Flight
  // records are always-on — the postmortem bundle names every dead letter.
  auto drop = [this, &down, &dead_letters, now](Envelope& e, int64_t depth) {
    if (e.fail) {
      e.fail(down);
      return;
    }
    ++dead_letters;
    cluster_->flight_recorder().Record(FlightEventType::kDeadLetter, id_,
                                       e.target.ToString(), e.trace.trace_id,
                                       depth, now);
    if (e.trace.sampled) {
      AODB_LOG(Warn,
               "dead letter: %s dropped by kill of silo %d (mailbox depth "
               "%lld, trace %llu)",
               e.target.ToString().c_str(), static_cast<int>(id_),
               static_cast<long long>(depth),
               static_cast<unsigned long long>(e.trace.trace_id));
    }
  };
  auto backlog_depth = static_cast<int64_t>(backlog.size());
  for (auto& e : backlog) drop(e, backlog_depth);
  for (auto& act : victims) {
    std::deque<Envelope> pending;
    {
      std::lock_guard<std::mutex> lock(act->mu);
      act->state = ActState::kClosed;
      pending.swap(act->mailbox);
    }
    CountQueued(*act, -static_cast<int64_t>(pending.size()));
    if (act->actor) act->actor->ctx().CancelAllTimers();
    auto depth = static_cast<int64_t>(pending.size());
    for (auto& e : pending) drop(e, depth);
  }
  return dead_letters;
}

void Silo::Restart() {
  // Zombies stay parked (see zombies_); the catalog is already empty, so
  // the node rejoins as a fresh, empty silo.
  wedged_.store(false, std::memory_order_release);
  alive_.store(true, std::memory_order_release);
}

void Silo::FinishDeactivation(const ActivationPtr& act,
                              std::function<void(Status)> done) {
  executor_->Post(Task{
      [this, act, done = std::move(done)] {
        act->actor->ctx().CancelAllTimers();
        ScopedFlightScope fscope(&cluster_->flight_recorder(), id_);
        act->actor->OnDeactivate().OnReady(
            [this, act, done](Result<Status>&& r) {
              Status st = r.ok() ? r.value() : r.status();
              std::deque<Envelope> pending;
              SiloId migrate_to = kNoSilo;
              bool page_out = false;
              {
                std::lock_guard<std::mutex> lock(act->mu);
                act->state = ActState::kClosed;
                migrate_to = act->migrate_to;
                page_out = act->page_out;
                pending.swap(act->mailbox);
              }
              CountQueued(*act, -static_cast<int64_t>(pending.size()));
              // Migration: move the directory entry to the target instead
              // of removing it, so the rerouted mailbox and every later
              // send land there and re-activate from persisted state. Move
              // refuses a dead target (races with eviction); the entry is
              // then removed and the next send re-places normally.
              bool moved =
                  migrate_to != kNoSilo &&
                  cluster_->directory().Move(act->id, id_, migrate_to);
              // Page-out: KEEP the registration, flagged paged, so the next
              // message faults the actor back in here instead of
              // re-placing. MarkPaged refuses a stale mapping (e.g. a
              // PurgeSilo raced the eviction) — then remove as for a plain
              // deactivation.
              bool paged = !moved && page_out &&
                           cluster_->directory().MarkPaged(act->id, id_);
              if (!moved && !paged) cluster_->directory().Remove(act->id, id_);
              {
                std::lock_guard<std::mutex> lock(mu_);
                catalog_.erase(act->id);
                LruUnlinkLocked(act);
                if (page_out) --pending_page_outs_;
                ++stats_.activations_removed;
              }
              Micros now = executor_->clock()->Now();
              if (paged) {
                paged_out_->Add();
                cluster_->flight_recorder().Record(
                    FlightEventType::kPagedOut, id_, act->id.ToString(),
                    /*trace_id=*/0,
                    /*detail=*/static_cast<int64_t>(pending.size()), now);
              } else if (moved) {
                migrations_->Add();
                cluster_->flight_recorder().Record(
                    FlightEventType::kMigrate, id_, act->id.ToString(),
                    /*trace_id=*/0, /*detail=*/migrate_to, now);
                AODB_LOG(Info,
                         "migrated %s from silo %d to silo %d (%zu queued "
                         "message(s) re-routed)",
                         act->id.ToString().c_str(), static_cast<int>(id_),
                         static_cast<int>(migrate_to), pending.size());
              } else {
                cluster_->flight_recorder().Record(
                    FlightEventType::kDeactivate, id_, act->id.ToString(),
                    /*trace_id=*/0,
                    /*detail=*/static_cast<int64_t>(pending.size()), now);
              }
              for (auto& e : pending) cluster_->Send(std::move(e));
              if (done) done(st);
            });
      },
      kLifecycleCostUs});
}

void Silo::CountQueued(const Activation& act, int64_t n) {
  if (n == 0) return;
  queued_.fetch_add(n, std::memory_order_relaxed);
  if (act.type != nullptr) act.type->mailbox_depth->Add(n);
}

int64_t Silo::MailboxDepth(const ActivationPtr& act) {
  std::lock_guard<std::mutex> lock(act->mu);
  return static_cast<int64_t>(act->mailbox.size());
}

std::vector<Silo::HotActivation> Silo::TopActivations(size_t n) const {
  std::vector<HotActivation> out;
  if (!alive() || n == 0) return out;
  std::vector<ActivationPtr> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(catalog_.size());
    for (const auto& [id, act] : catalog_) snapshot.push_back(act);
  }
  out.reserve(snapshot.size());
  for (const auto& act : snapshot) {
    std::lock_guard<std::mutex> lock(act->mu);
    if (act->state == ActState::kClosed) continue;
    out.push_back({act->id, static_cast<int64_t>(act->mailbox.size())});
  }
  std::sort(out.begin(), out.end(),
            [](const HotActivation& a, const HotActivation& b) {
              if (a.depth != b.depth) return a.depth > b.depth;
              return a.id.ToString() < b.id.ToString();
            });
  if (out.size() > n) out.resize(n);
  return out;
}

std::optional<Silo::HotActivation> Silo::HottestActivation(
    int min_depth) const {
  std::vector<ActivationPtr> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(catalog_.size());
    for (const auto& [id, act] : catalog_) snapshot.push_back(act);
  }
  std::optional<HotActivation> best;
  for (const auto& act : snapshot) {
    std::lock_guard<std::mutex> lock(act->mu);
    if (act->state == ActState::kLoading ||
        act->state == ActState::kDeactivating ||
        act->state == ActState::kClosed || act->migrate_to != kNoSilo) {
      continue;
    }
    auto depth = static_cast<int64_t>(act->mailbox.size());
    if (depth < min_depth) continue;
    if (!best || depth > best->depth) best = HotActivation{act->id, depth};
  }
  return best;
}

bool Silo::RequestMigration(const ActorId& id, SiloId to) {
  if (to == id_ || !alive()) return false;
  ActivationPtr act;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = catalog_.find(id);
    if (it == catalog_.end()) return false;
    act = it->second;
  }
  bool immediate = false;
  {
    std::lock_guard<std::mutex> lock(act->mu);
    switch (act->state) {
      case ActState::kIdle:
        // No turn in flight: deactivate now. The same state precondition
        // the idle sweeper uses makes the two initiators mutually
        // exclusive — whoever transitions to kDeactivating first wins, the
        // other sees a non-kIdle state and backs off.
        act->migrate_to = to;
        act->state = ActState::kDeactivating;
        immediate = true;
        break;
      case ActState::kScheduled:
      case ActState::kRunning:
        // Mark only; the in-flight turn's completion block performs the
        // kRunning -> kDeactivating transition itself.
        act->migrate_to = to;
        break;
      case ActState::kLoading:
      case ActState::kDeactivating:
      case ActState::kClosed:
        return false;
    }
  }
  if (immediate) FinishDeactivation(act, nullptr);
  return true;
}

void Silo::Reroute(Envelope env) {
  Cluster* cluster = cluster_;
  executor_->PostAfter(kRerouteDelayUs,
                       [cluster, env = std::move(env)]() mutable {
                         cluster->Send(std::move(env));
                       });
}

std::vector<ActorId> Silo::LiveActivations() const {
  std::vector<ActorId> out;
  if (!alive()) return out;
  std::vector<ActivationPtr> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(catalog_.size());
    for (const auto& [id, act] : catalog_) snapshot.push_back(act);
  }
  out.reserve(snapshot.size());
  for (const auto& act : snapshot) {
    std::lock_guard<std::mutex> lock(act->mu);
    if (act->state == ActState::kDeactivating ||
        act->state == ActState::kClosed) {
      continue;
    }
    out.push_back(act->id);
  }
  return out;
}

size_t Silo::ActivationCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.size();
}

SiloStats Silo::Stats() const {
  SiloStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
  }
  s.messages_processed = messages_processed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace aodb
