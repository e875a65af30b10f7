#include "actor/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/telemetry.h"

namespace aodb {

const char* FlightEventName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kActivate: return "activate";
    case FlightEventType::kDeactivate: return "deactivate";
    case FlightEventType::kMigrate: return "migrate";
    case FlightEventType::kEvict: return "evict";
    case FlightEventType::kRestart: return "restart";
    case FlightEventType::kFailoverResubmit: return "failover_resubmit";
    case FlightEventType::kFailoverFailed: return "failover_failed";
    case FlightEventType::kRetryExhausted: return "retry_exhausted";
    case FlightEventType::kMailboxReject: return "mailbox_reject";
    case FlightEventType::kShed: return "shed";
    case FlightEventType::kDeadlineTimeout: return "deadline_timeout";
    case FlightEventType::kSlowTurn: return "slow_turn";
    case FlightEventType::kDeadLetter: return "dead_letter";
    case FlightEventType::kPagedOut: return "paged_out";
    case FlightEventType::kFaultIn: return "fault_in";
  }
  return "unknown";
}

// --- FlightRecorder ----------------------------------------------------------

FlightRecorder::FlightRecorder(int num_silos, bool enabled, int ring_capacity,
                               MetricsRegistry* metrics)
    : num_silos_(num_silos), enabled_(enabled) {
  if (!enabled_) return;
  rings_.reserve(static_cast<size_t>(num_silos) + 1);
  for (int i = 0; i <= num_silos; ++i) {
    rings_.push_back(std::make_unique<LossyRing<FlightRecord>>(
        static_cast<size_t>(std::max(ring_capacity, 8))));
  }
  if (metrics != nullptr) {
    recorded_ = metrics->GetCounter("flight.recorded");
    dropped_ = metrics->GetCounter("flight.dropped");
  }
}

void FlightRecorder::Record(FlightEventType type, SiloId silo,
                            std::string_view actor, uint64_t trace_id,
                            int64_t detail, Micros at_us) {
  if (!enabled_) return;
  FlightRecord rec;
  rec.at_us = at_us;
  rec.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  rec.trace_id = trace_id;
  rec.detail = detail;
  rec.silo = silo;
  rec.type = type;
  size_t n = std::min(actor.size(), FlightRecord::kActorBytes - 1);
  std::memcpy(rec.actor, actor.data(), n);
  rec.actor[n] = '\0';
  if (rings_[NodeRingIndex(silo, num_silos_)]->Push(rec)) {
    if (recorded_ != nullptr) recorded_->Add();
  } else {
    if (dropped_ != nullptr) dropped_->Add();
  }
}

std::vector<FlightRecord> FlightRecorder::Collect() const {
  std::vector<FlightRecord> out;
  for (const auto& ring : rings_) ring->Collect(&out);
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.at_us != b.at_us ? a.at_us < b.at_us : a.seq < b.seq;
            });
  return out;
}

void FlightRecorder::AppendEventsJson(const std::vector<FlightRecord>& events,
                                      std::string* out) {
  *out += '[';
  bool first = true;
  char buf[192];
  for (const FlightRecord& e : events) {
    if (!first) *out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"at_us\":%lld,\"seq\":%llu,\"type\":\"%s\",\"silo\":%d,",
                  static_cast<long long>(e.at_us),
                  static_cast<unsigned long long>(e.seq),
                  FlightEventName(e.type), static_cast<int>(e.silo));
    *out += buf;
    *out += "\"actor\":\"" + JsonEscape(e.actor) + "\",";
    std::snprintf(buf, sizeof(buf), "\"trace\":%llu,\"detail\":%lld}",
                  static_cast<unsigned long long>(e.trace_id),
                  static_cast<long long>(e.detail));
    *out += buf;
  }
  *out += ']';
}

std::string FlightRecorder::DumpJson() const {
  std::string out = "{\"flight_events\":";
  AppendEventsJson(Collect(), &out);
  out += '}';
  return out;
}

}  // namespace aodb
