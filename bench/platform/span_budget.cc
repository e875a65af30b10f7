#include "span_budget.h"

#include <algorithm>

namespace aodb {
namespace platform_bench {

const char* LayerName(int layer) {
  switch (layer) {
    case kGenerator: return "generator";
    case kStorage: return "storage";
    case kTurn: return "turn";
    case kMailbox: return "mailbox";
    case kResidual: return "residual";
  }
  return "?";
}

bool OnReplyPath(const SpanRecord& span) {
  return span.name != "Update" && span.name != "SourceUpdate";
}

namespace {

struct Edge {
  double t;
  int layer;
  int delta;  // +1 opens, -1 closes.
};

/// Splits [root.due_us, root.done_us] into layers by sweeping the interval
/// edges in time order; adds the result to `out`.
void Attribute(const RootSpan& root, const std::vector<SpanRecord>* spans,
               Budget* out) {
  const double lo = root.due_us;
  const double hi = root.done_us;
  if (hi <= lo) return;
  std::vector<Edge> edges;
  auto add = [&](double a, double b, int layer) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) return;
    edges.push_back({a, layer, +1});
    edges.push_back({b, layer, -1});
  };
  add(root.due_us, root.sent_us, kGenerator);
  if (spans != nullptr) {
    for (const SpanRecord& s : *spans) {
      if (s.kind == "storage") {
        add(static_cast<double>(s.start_us), static_cast<double>(s.end_us),
            kStorage);
      } else if (s.kind == "turn" && OnReplyPath(s)) {
        add(static_cast<double>(s.start_us - s.queue_wait_us),
            static_cast<double>(s.start_us), kMailbox);
        add(static_cast<double>(s.start_us), static_cast<double>(s.end_us),
            kTurn);
      }
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });
  std::array<int, kNumLayers> open{};
  std::array<double, kNumLayers> acc{};
  double cursor = lo;
  for (const Edge& e : edges) {
    if (e.t > cursor) {
      int layer = kResidual;
      for (int l = 0; l < kResidual; ++l) {
        if (open[l] > 0) {
          layer = l;
          break;
        }
      }
      acc[layer] += e.t - cursor;
      cursor = e.t;
    }
    open[e.layer] += e.delta;
  }
  acc[kResidual] += hi - cursor;
  out->traces += 1;
  out->total_us += hi - lo;
  for (int l = 0; l < kNumLayers; ++l) out->layer_us[l] += acc[l];
}

}  // namespace

std::array<Budget, kNumOpTypes> ComputeBudgets(
    const std::vector<RootSpan>& roots,
    const std::unordered_map<uint64_t, std::vector<SpanRecord>>& spans) {
  std::array<Budget, kNumOpTypes> out{};
  for (const RootSpan& root : roots) {
    auto it = spans.find(root.trace_id);
    Attribute(root, it == spans.end() ? nullptr : &it->second,
              &out[static_cast<int>(root.type)]);
  }
  return out;
}

}  // namespace platform_bench
}  // namespace aodb
