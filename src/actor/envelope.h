// The unit of communication between actors: an immutable, asynchronous
// message bound for a virtual actor, carrying the closure that applies it
// to the target activation.

#ifndef AODB_ACTOR_ENVELOPE_H_
#define AODB_ACTOR_ENVELOPE_H_

#include <functional>
#include <string>

#include "actor/actor_id.h"
#include "actor/trace.h"
#include "common/clock.h"
#include "common/small_function.h"
#include "common/status.h"

namespace aodb {

class ActorBase;
struct WireMethodInfo;

/// The dispatch closure of one message. Sized so the typed-call capture —
/// member-function pointer, argument tuple, promise, reply routing — stays
/// inline: the same-silo closure lane then sends a message without a single
/// std::function heap allocation.
using EnvelopeFn = SmallFunction<void(ActorBase&), 96>;

/// Default simulated CPU cost of applying one message, when the caller does
/// not specify one. Calibration notes live in src/actor/cost_model.h.
constexpr Micros kDefaultMessageCostUs = 50;

/// Shed class of a message under overload. When a silo's queued-envelope
/// total passes the shed watermark (OverloadOptions), lower classes are
/// rejected with Status::Overloaded first — telemetry inserts before
/// queries, and control traffic (workflow / 2PC steps, lifecycle) never:
/// graceful degradation sacrifices the most replaceable data first.
enum class MessagePriority : uint8_t {
  kTelemetry = 0,  ///< High-volume ingest (sensor inserts); shed first.
  kQuery = 1,      ///< Interactive reads; shed only past the hard watermark.
  kControl = 2,    ///< Workflow/2PC/lifecycle traffic; never shed.
};

/// A message in flight. `fn` runs on the target activation with exclusive
/// access to the actor (turn-based concurrency).
struct Envelope {
  ActorId target;
  SiloId caller_silo = kClientSiloId;
  Principal principal;
  /// Simulated CPU service time of processing this message.
  Micros cost_us = kDefaultMessageCostUs;
  /// Absolute deadline on the caller's clock (0 = none). Expired messages
  /// are failed with Status::Timeout instead of dispatched; the caller-side
  /// watchdog guarantees the promise settles by this time regardless.
  Micros deadline_us = 0;
  /// Times this call has been re-submitted by in-flight failover after a
  /// silo eviction (bounded by MembershipOptions::failover.max_retries).
  int failover_attempts = 0;
  /// Shed class under overload (see MessagePriority).
  MessagePriority priority = MessagePriority::kQuery;
  /// Causality context of the send (invalid when the caller's request was
  /// not sampled). Propagated across the wire, retries, and failover.
  TraceContext trace;
  /// Silo-local receive time, stamped by Silo::Deliver; the turn's queue
  /// wait is measured against it.
  Micros enqueue_us = 0;
  EnvelopeFn fn;
  /// Invoked instead of `fn` if the message can never be delivered (e.g.
  /// the target type is unregistered or activation failed). Calls created
  /// through ActorRef wire this to the caller's promise.
  std::function<void(const Status&)> fail;

  // --- Wire lane (cross-silo serialized dispatch) ---------------------------
  //
  // Both lanes ride in the envelope because the send side cannot know the
  // target silo before placement: Cluster::Send picks the closure lane for
  // same-silo delivery (zero-copy fast path) and the wire lane for remote
  // delivery. Arguments are encoded lazily — only when a remote hop actually
  // happens — so local sends never pay for serialization.

  /// Registration of the invoked method, or nullptr if the method has no
  /// wire registration (a remote send then fails with FailedPrecondition).
  const WireMethodInfo* wire = nullptr;
  /// Lazily encodes the argument tuple (WireEncodeTuple of the decayed
  /// argument pack).
  std::function<std::string()> wire_encode_args;
  /// Caller-side completion for wire calls: receives the sealed reply frame
  /// or a transport error, decodes Result<T>, and settles the promise.
  /// Empty for tells.
  std::function<void(Result<std::string>&&)> on_wire_reply;
};

namespace internal {

/// Absolute deadline of the actor turn currently running on this thread
/// (0 outside a turn or when the turn has no deadline). Written by the silo
/// around each turn; read by ActorRef so nested calls inherit the caller's
/// remaining deadline. Thread-local, so it is correct both under the
/// single-threaded simulator and on real worker threads (nested sends
/// happen synchronously inside the method body).
inline Micros& CurrentTurnDeadline() {
  thread_local Micros deadline = 0;
  return deadline;
}

}  // namespace internal

}  // namespace aodb

#endif  // AODB_ACTOR_ENVELOPE_H_
