#include "shm/aggregator_actor.h"

namespace aodb {
namespace shm {

void AggregatorActor::Update(std::vector<DataPoint> points) {
  for (const DataPoint& p : points) {
    int64_t idx = p.ts / window_len_us_;
    if (idx > highest_seen_window_) {
      CloseWindowsBefore(idx);
      highest_seen_window_ = idx;
    }
    windows_[idx].Add(p.value);
  }
  while (windows_.size() > kMaxWindows) windows_.erase(windows_.begin());
}

void AggregatorActor::CloseWindowsBefore(int64_t window_idx) {
  if (parent_key_.empty()) return;
  std::vector<DataPoint> closed;
  for (auto& [idx, agg] : windows_) {
    if (idx >= window_idx) break;
    if (idx <= last_forwarded_) continue;
    closed.push_back(
        DataPoint{idx * window_len_us_ + window_len_us_ / 2, agg.mean()});
    last_forwarded_ = idx;
  }
  if (closed.empty()) return;
  CallOptions opts;
  opts.cost_us = kCostAggUpdate;
  opts.priority = MessagePriority::kControl;
  ctx()
      .Ref<AggregatorActor>(parent_key_)
      .TellWith(opts, &AggregatorActor::Update, std::move(closed));
}

std::vector<AggregateView> AggregatorActor::Query(Micros from, Micros to) {
  std::vector<AggregateView> out;
  int64_t from_idx = from / window_len_us_;
  for (auto it = windows_.lower_bound(from_idx); it != windows_.end(); ++it) {
    Micros start = it->first * window_len_us_;
    if (start >= to) break;
    const Welford& w = it->second;
    out.push_back(AggregateView{start, window_len_us_, w.count(), w.min(),
                                w.max(), w.mean(), w.StdDev()});
  }
  return out;
}

}  // namespace shm
}  // namespace aodb
