#include "actor/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/telemetry.h"

namespace aodb {

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer(int num_silos, int sample_every, int ring_capacity,
               MetricsRegistry* metrics)
    : num_silos_(num_silos), sample_every_(sample_every) {
  rings_.reserve(static_cast<size_t>(num_silos) + 1);
  for (int i = 0; i <= num_silos; ++i) {
    rings_.push_back(std::make_unique<LossyRing<SpanRecord>>(
        static_cast<size_t>(std::max(ring_capacity, 8))));
  }
  if (metrics != nullptr) {
    spans_recorded_ = metrics->GetCounter("trace.spans_recorded");
    spans_dropped_ = metrics->GetCounter("trace.spans_dropped");
    traces_started_ = metrics->GetCounter("trace.traces_started");
  }
}

TraceContext Tracer::MaybeStartTrace() {
  if (sample_every_ <= 0) return {};
  uint64_t draw = root_draw_.fetch_add(1, std::memory_order_relaxed);
  if (draw % static_cast<uint64_t>(sample_every_) != 0) return {};
  TraceContext ctx;
  ctx.trace_id = next_trace_.fetch_add(1, std::memory_order_relaxed);
  ctx.span_id = 0;  // The caller opens the root span itself.
  ctx.sampled = true;
  if (traces_started_ != nullptr) traces_started_->Add();
  return ctx;
}

void Tracer::Record(SpanRecord rec) {
  if (rec.trace_id == 0) return;
  size_t idx = NodeRingIndex(rec.silo, num_silos_);
  if (rings_[idx]->Push(std::move(rec))) {
    if (spans_recorded_ != nullptr) spans_recorded_->Add();
  } else {
    if (spans_dropped_ != nullptr) spans_dropped_->Add();
  }
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::vector<SpanRecord> out;
  for (const auto& ring : rings_) ring->Collect(&out);
  return out;
}

std::vector<SpanRecord> Tracer::CollectTrace(uint64_t trace_id) const {
  std::vector<SpanRecord> all = Collect();
  std::vector<SpanRecord> out;
  for (auto& rec : all) {
    if (rec.trace_id == trace_id) out.push_back(std::move(rec));
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_us != b.start_us ? a.start_us < b.start_us
                                              : a.span_id < b.span_id;
            });
  return out;
}

namespace {

void AppendSpanJson(const SpanRecord& s, std::string* out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{\"span\":%llu,\"parent\":%llu,",
                static_cast<unsigned long long>(s.span_id),
                static_cast<unsigned long long>(s.parent_span_id));
  *out += buf;
  // Name/actor/kind come from user-registered actor types and keys: escape,
  // or a hostile name breaks every consumer of the dump.
  *out += "\"name\":\"" + JsonEscape(s.name) + "\",\"actor\":\"" +
          JsonEscape(s.actor) + "\",\"kind\":\"" + JsonEscape(s.kind) + "\",";
  std::snprintf(buf, sizeof(buf), "\"silo\":%d,", s.silo);
  *out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"start_us\":%lld,\"end_us\":%lld,\"queue_wait_us\":%lld}",
                static_cast<long long>(s.start_us),
                static_cast<long long>(s.end_us),
                static_cast<long long>(s.queue_wait_us));
  *out += buf;
}

}  // namespace

std::string Tracer::DumpJson() const {
  std::vector<SpanRecord> all = Collect();
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              return a.start_us != b.start_us ? a.start_us < b.start_us
                                              : a.span_id < b.span_id;
            });
  std::string out = "{\"traces\":[";
  uint64_t current = 0;
  bool first_trace = true;
  bool first_span = true;
  for (const auto& s : all) {
    if (s.trace_id != current) {
      if (current != 0) out += "]}";
      if (!first_trace) out += ',';
      first_trace = false;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "{\"trace_id\":%llu,\"spans\":[",
                    static_cast<unsigned long long>(s.trace_id));
      out += buf;
      current = s.trace_id;
      first_span = true;
    }
    if (!first_span) out += ',';
    first_span = false;
    AppendSpanJson(s, &out);
  }
  if (current != 0) out += "]}";
  out += "]}";
  return out;
}

}  // namespace aodb
