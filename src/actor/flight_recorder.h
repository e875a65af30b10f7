// Black-box flight recorder: a per-silo lock-free ring of fixed-size binary
// records capturing lifecycle and anomaly events — activation, deactivation,
// migration, eviction, failover, retry exhaustion, mailbox reject/shed,
// deadline timeout, slow turn, dead letter. Each record is stamped with the
// event time, actor id, silo, and the envelope's trace id, so a postmortem
// bundle can cross-correlate flight events with sampled spans.
//
// Records go to the same lossy per-node rings as spans (LossyRing,
// actor/lossy_ring.h): a contended slot drops the event (counted), and no
// mutex is ever taken on the hot path, so the recorder stays enabled in
// production and under TSan.

#ifndef AODB_ACTOR_FLIGHT_RECORDER_H_
#define AODB_ACTOR_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "actor/actor_id.h"
#include "actor/lossy_ring.h"
#include "common/clock.h"

namespace aodb {

class Counter;
class MetricsRegistry;

/// Taxonomy of recorded events. Names (FlightEventName) are stable strings
/// used in bundle JSON; add new kinds at the end.
enum class FlightEventType : uint8_t {
  kActivate = 0,        ///< OnActivate completed OK (detail: 0).
  kDeactivate,          ///< Idle/shutdown deactivation (detail: rerouted msgs).
  kMigrate,             ///< Live migration out (detail: target silo).
  kEvict,               ///< Silo evicted/killed (detail: 1 = auto-eviction).
  kRestart,             ///< Silo rejoined after a kill.
  kFailoverResubmit,    ///< In-flight call re-submitted (detail: attempt #).
  kFailoverFailed,      ///< In-flight call failed Unavailable on eviction.
  kRetryExhausted,      ///< A RetryAsync loop gave up (detail: attempts).
  kMailboxReject,       ///< Bounded-mailbox rejection (detail: depth).
  kShed,                ///< Priority shed (detail: silo queued total).
  kDeadlineTimeout,     ///< Expired envelope dropped (detail: lateness us).
  kSlowTurn,            ///< Turn over threshold (detail: exec us).
  kDeadLetter,          ///< Envelope dropped with nobody to notify.
  kPagedOut,            ///< Cold activation paged to storage; directory entry
                        ///< kept and marked paged (detail: rerouted msgs).
  kFaultIn,             ///< Paged actor re-activated on a message (detail:
                        ///< storage-load latency us).
};

/// Stable lower_snake_case name of an event type ("slow_turn", ...).
const char* FlightEventName(FlightEventType type);

/// One fixed-size flight record. Trivially copyable: slot stores never
/// allocate, so a wrap-around overwrite costs a memcpy.
struct FlightRecord {
  /// Actor id ("Type/key") storage; longer ids are truncated.
  static constexpr size_t kActorBytes = 48;

  Micros at_us = 0;
  /// Global record sequence (relaxed fetch_add): orders events that share a
  /// timestamp when rings are merged.
  uint64_t seq = 0;
  uint64_t trace_id = 0;
  /// Event-specific detail (see FlightEventType comments).
  int64_t detail = 0;
  SiloId silo = kClientSiloId;
  FlightEventType type = FlightEventType::kActivate;
  char actor[kActorBytes] = {0};  ///< NUL-terminated.
};

/// Per-cluster flight recorder: one ring per silo plus a client/runtime ring
/// (index num_silos), a global sequence counter, and "flight.recorded" /
/// "flight.dropped" counters. Disabled → Record is a branch and a return.
class FlightRecorder {
 public:
  FlightRecorder(int num_silos, bool enabled, int ring_capacity,
                 MetricsRegistry* metrics);

  bool enabled() const { return enabled_; }

  /// Records one event at `at_us` (caller supplies the clock reading it
  /// already has — keeps the recorder clock-agnostic and deterministic
  /// under the simulator). Lock-free; safe from any thread.
  void Record(FlightEventType type, SiloId silo, std::string_view actor,
              uint64_t trace_id, int64_t detail, Micros at_us);

  /// All buffered records across every ring, sorted by (at_us, seq) — the
  /// merged cluster-wide timeline.
  std::vector<FlightRecord> Collect() const;

  /// {"flight_events":[{"at_us":..,"seq":..,"type":"..","silo":..,
  /// "actor":"..","trace":..,"detail":..},...]} — actor names are
  /// JSON-escaped.
  std::string DumpJson() const;

  /// Appends just the JSON array of `events` (the bundle writer embeds it).
  static void AppendEventsJson(const std::vector<FlightRecord>& events,
                               std::string* out);

 private:
  const int num_silos_;
  const bool enabled_;
  std::atomic<uint64_t> next_seq_{1};
  std::vector<std::unique_ptr<LossyRing<FlightRecord>>> rings_;
  Counter* recorded_ = nullptr;
  Counter* dropped_ = nullptr;
};

namespace internal {

/// Flight recorder (and hosting silo) of the actor turn currently running
/// on this thread. RetryAsync loops capture it at construction so retry
/// exhaustion inside actor code is attributable to the silo that ran it;
/// client-side loops see a null recorder and record nothing. Mirrors
/// CurrentTraceContextSlot (actor/trace.h).
struct FlightScope {
  FlightRecorder* recorder = nullptr;
  SiloId silo = kClientSiloId;
};

inline FlightScope& CurrentFlightScopeSlot() {
  thread_local FlightScope scope;
  return scope;
}

}  // namespace internal

/// Recorder scope inherited by code on this thread (null recorder outside
/// any actor turn).
inline const internal::FlightScope& CurrentFlightScope() {
  return internal::CurrentFlightScopeSlot();
}

/// RAII scope installing a flight recorder + silo as the thread's current
/// scope (the silo wraps turn execution and lifecycle hooks with this).
class ScopedFlightScope {
 public:
  ScopedFlightScope(FlightRecorder* recorder, SiloId silo)
      : saved_(internal::CurrentFlightScopeSlot()) {
    internal::CurrentFlightScopeSlot() = {recorder, silo};
  }
  ~ScopedFlightScope() { internal::CurrentFlightScopeSlot() = saved_; }
  ScopedFlightScope(const ScopedFlightScope&) = delete;
  ScopedFlightScope& operator=(const ScopedFlightScope&) = delete;

 private:
  internal::FlightScope saved_;
};

}  // namespace aodb

#endif  // AODB_ACTOR_FLIGHT_RECORDER_H_
