// Typed references to virtual actors: the client- and actor-side API for
// asynchronous method invocation.
//
//   ActorRef<CowActor> cow = cluster.Ref<CowActor>("cow-42");
//   Future<GeoPoint> loc = cow.Call(&CowActor::Location);
//   cow.Tell(&CowActor::ReportReading, reading);   // fire-and-forget
//
// Methods may return plain values, Status, Result<T>, or Future<T> (for
// actor methods that themselves await other actors). Arguments are copied
// into the message (messages are immutable values, per the actor model).

#ifndef AODB_ACTOR_ACTOR_REF_H_
#define AODB_ACTOR_ACTOR_REF_H_

#include <tuple>
#include <utility>

#include "actor/actor.h"
#include "actor/cluster.h"
#include "actor/envelope.h"
#include "actor/future.h"
#include "actor/method_registry.h"
#include "common/wire.h"

namespace aodb {

/// Per-call overrides: simulated CPU cost, deadline budget and shed class.
/// (A remote call's network charge is its measured frame size.)
struct CallOptions {
  Micros cost_us = kDefaultMessageCostUs;
  /// Relative deadline for this call (0 = inherit). Resolution: an explicit
  /// timeout here wins (clamped by any inherited turn deadline); otherwise
  /// the caller's turn deadline is inherited; otherwise
  /// RuntimeOptions::default_call_deadline_us applies. A call with a
  /// deadline is guaranteed to complete by it — with Status::Timeout if no
  /// real result arrived first.
  Micros timeout_us = 0;
  /// Shed class under overload: which watermark may reject this message
  /// with Status::Overloaded (see MessagePriority). Telemetry ingest marks
  /// itself kTelemetry; workflow/2PC traffic kControl.
  MessagePriority priority = MessagePriority::kQuery;
};

/// A typed handle to a virtual actor of type TActor. Cheap to copy. The
/// referenced actor is activated on first message.
template <typename TActor>
class ActorRef {
 public:
  ActorRef() : cluster_(nullptr), caller_silo_(kClientSiloId) {}
  ActorRef(Cluster* cluster, ActorId id, SiloId caller_silo,
           Principal principal = {})
      : cluster_(cluster),
        id_(std::move(id)),
        caller_silo_(caller_silo),
        principal_(std::move(principal)) {}

  const ActorId& id() const { return id_; }
  const std::string& key() const { return id_.key; }
  bool valid() const { return cluster_ != nullptr; }

  /// Returns a copy of this ref that sends with the given principal
  /// (tenant identity for access control).
  ActorRef WithPrincipal(Principal p) const {
    ActorRef copy = *this;
    copy.principal_ = std::move(p);
    return copy;
  }

  /// Asynchronously invokes an actor method, returning a future of its
  /// result. The request and the response each pay network delay if caller
  /// and target are on different nodes; a call across nodes needs the
  /// method's MethodRegistry registration (else FailedPrecondition).
  template <typename R, typename C, typename... MArgs, typename... Args>
  Future<typename internal::CallResult<R>::type> Call(R (C::*method)(MArgs...),
                                                      Args&&... args) const {
    return CallWith(CallOptions{}, method, std::forward<Args>(args)...);
  }

  /// Call with explicit cost/deadline/priority options.
  template <typename R, typename C, typename... MArgs, typename... Args>
  Future<typename internal::CallResult<R>::type> CallWith(
      const CallOptions& opts, R (C::*method)(MArgs...),
      Args&&... args) const {
    static_assert(std::is_base_of_v<C, TActor>,
                  "method must belong to the referenced actor type");
    using RT = typename internal::CallResult<R>::type;
    Promise<RT> promise;
    Envelope env;
    env.target = id_;
    env.caller_silo = caller_silo_;
    env.principal = principal_;
    env.cost_us = opts.cost_us;
    env.priority = opts.priority;
    SiloId caller = caller_silo_;
    Cluster* cluster = cluster_;
    auto args_tuple =
        std::make_shared<std::tuple<std::decay_t<MArgs>...>>(
            std::forward<Args>(args)...);
    // The closure lane only ever runs on the caller's own silo (a remote
    // send goes out as a wire frame), so the reply completes the promise in
    // place: there is no reply hop.
    env.fn = [method, args_tuple, promise](ActorBase& base) {
      TActor& actor = static_cast<TActor&>(base);
      if constexpr (IsFuture<R>::value) {
        std::apply(
            [&](auto&... unpacked) {
              (actor.*method)(unpacked...)
                  .OnReady([promise](Result<RT>&& r) {
                    promise.SetResult(std::move(r));
                  });
            },
            *args_tuple);
      } else if constexpr (std::is_void_v<R>) {
        std::apply([&](auto&... unpacked) { (actor.*method)(unpacked...); },
                   *args_tuple);
        promise.SetValue(Unit{});
      } else {
        R value = std::apply(
            [&](auto&... unpacked) { return (actor.*method)(unpacked...); },
            *args_tuple);
        promise.SetValue(std::move(value));
      }
    };
    env.fail = [promise](const Status& st) { promise.SetError(st); };
    env.deadline_us = ResolveDeadline(opts.timeout_us);
    // Trace propagation: inside a traced turn the active span becomes the
    // parent of this call; at an untraced root the tracer makes the
    // sampling decision and this call opens the root span (completed when
    // the reply settles, below).
    env.trace = CurrentTraceContext();
    bool trace_root = false;
    if (!env.trace.valid() && cluster_->tracer().enabled()) {
      env.trace = cluster_->tracer().MaybeStartTrace();
      if (env.trace.sampled) {
        env.trace.span_id = cluster_->tracer().NewSpanId();
        trace_root = true;
      }
    }
    TraceContext trace = env.trace;
    // Wire lane: only when the full signature is wire-encodable (checked at
    // compile time) AND the method is registered; anything else can only be
    // called on the caller's own silo. Cluster::Send picks the lane after
    // placement; arguments are encoded lazily on an actual remote hop.
    if constexpr (WireSupported<RT, std::decay_t<MArgs>...>::value) {
      if (const WireMethodInfo* info =
              MethodRegistry::Global().Find(method)) {
        env.wire = info;
        env.wire_encode_args = [args_tuple] {
          // Per-(thread, argument-shape) size hint: repeated calls of the
          // same method encode into a right-sized buffer, no regrowth.
          thread_local size_t last_args_size = 0;
          BufWriter w;
          w.Reserve(last_args_size);
          WireEncodeTuple(&w, *args_tuple);
          last_args_size = w.size();
          return w.Release();
        };
        env.on_wire_reply = [promise](Result<std::string>&& frame) {
          promise.SetResult(DecodeWireReply<RT>(std::move(frame)));
        };
      }
    }
    Micros deadline = env.deadline_us;
    const WireMethodInfo* wire_info = env.wire;
    cluster_->Send(std::move(env));
    Future<RT> future = promise.GetFuture();
    if (trace_root) {
      Tracer* tracer = &cluster->tracer();
      Clock* clk = cluster->ExecutorFor(caller)->clock();
      Micros start_us = clk->Now();
      ActorId target = id_;
      std::string name =
          wire_info != nullptr ? std::string(wire_info->name) : id_.type;
      future.OnReady([tracer, clk, trace, start_us, caller, target,
                      name](Result<RT>&&) {
        SpanRecord rec;
        rec.trace_id = trace.trace_id;
        rec.span_id = trace.span_id;
        rec.parent_span_id = 0;
        rec.name = name;
        rec.actor = target.ToString();
        rec.kind = "client";
        rec.silo = caller;
        rec.start_us = start_us;
        rec.end_us = clk->Now();
        tracer->Record(std::move(rec));
      });
    }
    if (deadline > 0) {
      // Caller-side watchdog: whatever happens to the request (wedged silo,
      // lost reply, slow actor), the promise settles by the deadline.
      cluster->ExecutorFor(caller)->PostAt(
          deadline, [cluster, promise, future] {
            if (future.Ready()) return;
            cluster->NoteDeadlineExpired();
            promise.SetError(Status::Timeout("call deadline exceeded"));
          });
    }
    return future;
  }

  /// Fire-and-forget invocation: no reply, failures are dropped.
  template <typename R, typename C, typename... MArgs, typename... Args>
  void Tell(R (C::*method)(MArgs...), Args&&... args) const {
    TellWith(CallOptions{}, method, std::forward<Args>(args)...);
  }

  /// Tell with explicit cost/deadline/priority options.
  template <typename R, typename C, typename... MArgs, typename... Args>
  void TellWith(const CallOptions& opts, R (C::*method)(MArgs...),
                Args&&... args) const {
    static_assert(std::is_base_of_v<C, TActor>,
                  "method must belong to the referenced actor type");
    Envelope env;
    env.target = id_;
    env.caller_silo = caller_silo_;
    env.principal = principal_;
    env.cost_us = opts.cost_us;
    env.priority = opts.priority;
    auto args_tuple =
        std::make_shared<std::tuple<std::decay_t<MArgs>...>>(
            std::forward<Args>(args)...);
    env.fn = [method, args_tuple](ActorBase& base) {
      TActor& actor = static_cast<TActor&>(base);
      std::apply([&](auto&... unpacked) { (void)(actor.*method)(unpacked...); },
                 *args_tuple);
    };
    // Tells carry the deadline (expired ones are dropped before dispatch)
    // but get no watchdog: there is no promise to settle.
    env.deadline_us = ResolveDeadline(opts.timeout_us);
    // Trace propagation mirrors CallWith; a root tell has no reply to wait
    // for, so its root span is recorded immediately (zero duration).
    env.trace = CurrentTraceContext();
    if (!env.trace.valid() && cluster_->tracer().enabled()) {
      env.trace = cluster_->tracer().MaybeStartTrace();
      if (env.trace.sampled) {
        env.trace.span_id = cluster_->tracer().NewSpanId();
        Micros now = cluster_->ExecutorFor(caller_silo_)->clock()->Now();
        SpanRecord rec;
        rec.trace_id = env.trace.trace_id;
        rec.span_id = env.trace.span_id;
        rec.parent_span_id = 0;
        rec.name = id_.type;
        rec.actor = id_.ToString();
        rec.kind = "tell";
        rec.silo = caller_silo_;
        rec.start_us = now;
        rec.end_us = now;
        cluster_->tracer().Record(std::move(rec));
      }
    }
    // Wire lane for tells: no reply handler — the receive-side invoker
    // skips result encoding when the reply hook is empty.
    if constexpr (WireSupported<std::decay_t<MArgs>...>::value) {
      if (const WireMethodInfo* info =
              MethodRegistry::Global().Find(method)) {
        env.wire = info;
        env.wire_encode_args = [args_tuple] {
          thread_local size_t last_args_size = 0;
          BufWriter w;
          w.Reserve(last_args_size);
          WireEncodeTuple(&w, *args_tuple);
          last_args_size = w.size();
          return w.Release();
        };
      }
    }
    cluster_->Send(std::move(env));
  }

 private:
  /// Absolute deadline for a call sent now: explicit timeout, clamped by
  /// the inherited turn deadline, falling back to the cluster default (see
  /// CallOptions::timeout_us). Returns 0 for "no deadline".
  Micros ResolveDeadline(Micros timeout_us) const {
    Micros deadline = 0;
    if (timeout_us > 0) {
      deadline = cluster_->ExecutorFor(caller_silo_)->clock()->Now() +
                 timeout_us;
    }
    Micros inherited = internal::CurrentTurnDeadline();
    if (inherited > 0 && (deadline == 0 || inherited < deadline)) {
      deadline = inherited;
    }
    if (deadline == 0) {
      Micros def = cluster_->options().default_call_deadline_us;
      if (def > 0) {
        deadline =
            cluster_->ExecutorFor(caller_silo_)->clock()->Now() + def;
      }
    }
    return deadline;
  }

  Cluster* cluster_;
  ActorId id_;
  SiloId caller_silo_;
  Principal principal_;
};

// Out-of-line definitions of the templated reference factories declared in
// actor.h / cluster.h (they need the complete ActorRef type).

template <typename T>
ActorRef<T> ActorContext::Ref(const std::string& key) const {
  return ActorRef<T>(cluster_, ActorId{T::kTypeName, key}, silo_);
}

template <typename T>
ActorRef<T> Cluster::Ref(const std::string& key) {
  return ActorRef<T>(this, ActorId{T::kTypeName, key}, kClientSiloId);
}

template <typename T>
ActorRef<T> ActorContext::RefAs(const std::string& type,
                                const std::string& key) const {
  return ActorRef<T>(cluster_, ActorId{type, key}, silo_);
}

template <typename T>
ActorRef<T> Cluster::RefAs(const std::string& type, const std::string& key) {
  return ActorRef<T>(this, ActorId{type, key}, kClientSiloId);
}

}  // namespace aodb

#endif  // AODB_ACTOR_ACTOR_REF_H_
