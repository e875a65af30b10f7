#include "shm/channel_actor.h"

#include "aodb/index.h"
#include "aodb/registry.h"

#include "shm/aggregator_actor.h"
#include "shm/user_actor.h"

namespace aodb {
namespace shm {

namespace {

/// Wires up an hour->day->month aggregator chain from the caller's silo.
void ConfigureAggChain(ActorContext& ctx, const AggChainSpec& aggs) {
  CallOptions opts;
  opts.cost_us = kCostConfigure;
  opts.priority = MessagePriority::kControl;
  if (!aggs.hour_key.empty()) {
    ctx.Ref<AggregatorActor>(aggs.hour_key)
        .TellWith(opts, &AggregatorActor::Configure, aggs.hour_len_us,
                  aggs.day_key);
  }
  if (!aggs.day_key.empty()) {
    ctx.Ref<AggregatorActor>(aggs.day_key)
        .TellWith(opts, &AggregatorActor::Configure, aggs.day_len_us,
                  aggs.month_key);
  }
  if (!aggs.month_key.empty()) {
    ctx.Ref<AggregatorActor>(aggs.month_key)
        .TellWith(opts, &AggregatorActor::Configure, aggs.month_len_us,
                  std::string());
  }
}

}  // namespace

// --- Codec -------------------------------------------------------------------

void ChannelConfig::Encode(BufWriter* w) const {
  w->PutString(org_key);
  w->PutString(aggregator_key);
  w->PutString(virtual_key);
  w->PutString(alert_user_key);
  w->PutDouble(threshold_low);
  w->PutDouble(threshold_high);
  w->PutBool(has_threshold_low);
  w->PutBool(has_threshold_high);
  w->PutVarint(static_cast<uint64_t>(window_capacity));
  w->PutBool(indexed);
}

Status ChannelConfig::Decode(BufReader* r) {
  AODB_RETURN_NOT_OK(r->GetString(&org_key));
  AODB_RETURN_NOT_OK(r->GetString(&aggregator_key));
  AODB_RETURN_NOT_OK(r->GetString(&virtual_key));
  AODB_RETURN_NOT_OK(r->GetString(&alert_user_key));
  AODB_RETURN_NOT_OK(r->GetDouble(&threshold_low));
  AODB_RETURN_NOT_OK(r->GetDouble(&threshold_high));
  AODB_RETURN_NOT_OK(r->GetBool(&has_threshold_low));
  AODB_RETURN_NOT_OK(r->GetBool(&has_threshold_high));
  uint64_t cap = 0;
  AODB_RETURN_NOT_OK(r->GetVarint(&cap));
  window_capacity = static_cast<int>(cap);
  return r->GetBool(&indexed);
}

void ChannelState::Encode(BufWriter* w) const {
  config.Encode(w);
  w->PutVarint(window.size());
  for (const DataPoint& p : window) p.Encode(w);
  w->PutDouble(accumulated_change);
  w->PutVarint(static_cast<uint64_t>(total_points));
}

Status ChannelState::Decode(BufReader* r) {
  AODB_RETURN_NOT_OK(config.Decode(r));
  uint64_t n = 0;
  AODB_RETURN_NOT_OK(r->GetVarint(&n));
  window.clear();
  for (uint64_t i = 0; i < n; ++i) {
    DataPoint p;
    AODB_RETURN_NOT_OK(DataPoint::DecodeInto(r, &p));
    window.push_back(p);
  }
  AODB_RETURN_NOT_OK(r->GetDouble(&accumulated_change));
  uint64_t total = 0;
  AODB_RETURN_NOT_OK(r->GetVarint(&total));
  total_points = static_cast<int64_t>(total);
  return Status::OK();
}

void ChannelState::AppendPoints(const std::vector<DataPoint>& points) {
  for (const DataPoint& p : points) {
    if (!window.empty()) {
      accumulated_change += std::fabs(p.value - window.back().value);
    }
    window.push_back(p);
    if (static_cast<int>(window.size()) > config.window_capacity) {
      window.pop_front();
    }
    ++total_points;
  }
}

void ChannelState::EncodeDelta(const std::vector<DataPoint>& points,
                               BufWriter* w) {
  w->PutVector(points,
               [](BufWriter& bw, const DataPoint& p) { p.Encode(&bw); });
}

Status ChannelState::ApplyDelta(BufReader* r) {
  std::vector<DataPoint> points;
  AODB_RETURN_NOT_OK(r->GetVector(&points, [](BufReader& br, DataPoint* p) {
    return DataPoint::DecodeInto(&br, p);
  }));
  if (!r->AtEnd()) return Status::Corruption("trailing bytes in channel delta");
  AppendPoints(points);
  return Status::OK();
}

void VirtualChannelConfig::Encode(BufWriter* w) const {
  w->PutString(org_key);
  w->PutString(aggregator_key);
  w->PutVector(source_keys,
               [](BufWriter& bw, const std::string& s) { bw.PutString(s); });
  w->PutVarint(static_cast<uint64_t>(window_capacity));
}

Status VirtualChannelConfig::Decode(BufReader* r) {
  AODB_RETURN_NOT_OK(r->GetString(&org_key));
  AODB_RETURN_NOT_OK(r->GetString(&aggregator_key));
  AODB_RETURN_NOT_OK(r->GetVector(
      &source_keys,
      [](BufReader& br, std::string* s) { return br.GetString(s); }));
  uint64_t cap = 0;
  AODB_RETURN_NOT_OK(r->GetVarint(&cap));
  window_capacity = static_cast<int>(cap);
  return Status::OK();
}

void VirtualChannelState::Encode(BufWriter* w) const {
  config.Encode(w);
  w->PutVarint(latest_by_source.size());
  for (const auto& [k, v] : latest_by_source) {
    w->PutString(k);
    w->PutDouble(v);
  }
  w->PutVarint(window.size());
  for (const DataPoint& p : window) p.Encode(w);
  w->PutVarint(static_cast<uint64_t>(total_points));
}

Status VirtualChannelState::Decode(BufReader* r) {
  AODB_RETURN_NOT_OK(config.Decode(r));
  uint64_t n = 0;
  AODB_RETURN_NOT_OK(r->GetVarint(&n));
  latest_by_source.clear();
  for (uint64_t i = 0; i < n; ++i) {
    std::string k;
    double v = 0;
    AODB_RETURN_NOT_OK(r->GetString(&k));
    AODB_RETURN_NOT_OK(r->GetDouble(&v));
    latest_by_source[k] = v;
  }
  AODB_RETURN_NOT_OK(r->GetVarint(&n));
  window.clear();
  for (uint64_t i = 0; i < n; ++i) {
    DataPoint p;
    AODB_RETURN_NOT_OK(DataPoint::DecodeInto(r, &p));
    window.push_back(p);
  }
  uint64_t total = 0;
  AODB_RETURN_NOT_OK(r->GetVarint(&total));
  total_points = static_cast<int64_t>(total);
  return Status::OK();
}

// --- PhysicalChannelActor ----------------------------------------------------

Status PhysicalChannelActor::Configure(ChannelConfig config) {
  state().config = std::move(config);
  if (state().config.indexed) {
    TypeRegistry::Add(ctx(), kTypeName, ctx().self().key);
    ActorIndex(kChannelsByOrgIndex)
        .Insert(ctx(), state().config.org_key, ctx().self().key);
  }
  MarkDirty();
  return Status::OK();
}

Status PhysicalChannelActor::ConfigureFull(ChannelConfig config,
                                           AggChainSpec aggs) {
  ConfigureAggChain(ctx(), aggs);
  return Configure(std::move(config));
}

bool PhysicalChannelActor::CallerMayRead() const {
  const Principal& p = ctx().caller();
  if (p.tenant.empty()) return true;  // System / internal caller.
  return p.tenant == state().config.org_key || p.role == "admin";
}

Status PhysicalChannelActor::Append(std::vector<DataPoint> points) {
  state().AppendPoints(points);
  Forward(std::move(points));
  MarkDirty();
  return Status::OK();
}

Future<Status> PhysicalChannelActor::AppendDurable(
    std::vector<DataPoint> points) {
  state().AppendPoints(points);
  Future<Status> durable = AppendDeltaAsync(
      [&points](BufWriter* w) { ChannelState::EncodeDelta(points, w); });
  Forward(std::move(points));
  return durable;
}

void PhysicalChannelActor::Forward(std::vector<DataPoint> points) {
  const ChannelConfig& cfg = state().config;
  // Threshold alerts (requirement 5): one alert per crossing point.
  if (!cfg.alert_user_key.empty()) {
    for (const DataPoint& p : points) {
      if (cfg.has_threshold_high && p.value > cfg.threshold_high) {
        ctx().Ref<UserActor>(cfg.alert_user_key)
            .Tell(&UserActor::Notify,
                  AlertEvent{ctx().self().key, p.ts, p.value,
                             cfg.threshold_high, true});
      } else if (cfg.has_threshold_low && p.value < cfg.threshold_low) {
        ctx().Ref<UserActor>(cfg.alert_user_key)
            .Tell(&UserActor::Notify,
                  AlertEvent{ctx().self().key, p.ts, p.value,
                             cfg.threshold_low, false});
      }
    }
  }
  if (!cfg.aggregator_key.empty()) {
    CallOptions opts;
    opts.cost_us = kCostAggUpdate;
    // Interior fan-out of admitted data (see SensorActor): never shed.
    opts.priority = MessagePriority::kControl;
    ctx().Ref<AggregatorActor>(cfg.aggregator_key)
        .TellWith(opts, &AggregatorActor::Update, points);
  }
  if (!cfg.virtual_key.empty()) {
    CallOptions opts;
    opts.cost_us = kCostVirtualCompute;
    opts.priority = MessagePriority::kControl;
    ctx().Ref<VirtualChannelActor>(cfg.virtual_key)
        .TellWith(opts, &VirtualChannelActor::SourceUpdate, ctx().self().key,
                  std::move(points));
  }
}

LiveDataEntry PhysicalChannelActor::Latest() {
  const ChannelState& st = state();
  if (st.window.empty() || !CallerMayRead()) {
    return LiveDataEntry{ctx().self().key, 0, 0, false};
  }
  const DataPoint& p = st.window.back();
  return LiveDataEntry{ctx().self().key, p.ts, p.value, true};
}

RangeReply PhysicalChannelActor::Range(Micros from, Micros to) {
  RangeReply reply;
  if (!CallerMayRead()) {
    reply.authorized = false;
    return reply;
  }
  for (const DataPoint& p : state().window) {
    if (p.ts >= from && p.ts < to) reply.points.push_back(p);
  }
  return reply;
}

double PhysicalChannelActor::AccumulatedChange() {
  return state().accumulated_change;
}

int64_t PhysicalChannelActor::TotalPoints() { return state().total_points; }

// --- VirtualChannelActor -----------------------------------------------------

Status VirtualChannelActor::Configure(VirtualChannelConfig config) {
  state().config = std::move(config);
  MarkDirty();
  return Status::OK();
}

Status VirtualChannelActor::ConfigureFull(VirtualChannelConfig config,
                                          AggChainSpec aggs) {
  ConfigureAggChain(ctx(), aggs);
  return Configure(std::move(config));
}

bool VirtualChannelActor::CallerMayRead() const {
  const Principal& p = ctx().caller();
  if (p.tenant.empty()) return true;
  return p.tenant == state().config.org_key || p.role == "admin";
}

Status VirtualChannelActor::SourceUpdate(std::string source_key,
                                         std::vector<DataPoint> points) {
  VirtualChannelState& st = state();
  std::vector<DataPoint> derived;
  derived.reserve(points.size());
  for (const DataPoint& p : points) {
    st.latest_by_source[source_key] = p.value;
    double sum = 0;
    for (const auto& [k, v] : st.latest_by_source) sum += v;
    DataPoint d{p.ts, sum};
    st.window.push_back(d);
    if (static_cast<int>(st.window.size()) > st.config.window_capacity) {
      st.window.pop_front();
    }
    ++st.total_points;
    derived.push_back(d);
  }
  if (!st.config.aggregator_key.empty() && !derived.empty()) {
    CallOptions opts;
    opts.cost_us = kCostAggUpdate;
    opts.priority = MessagePriority::kControl;
    ctx().Ref<AggregatorActor>(st.config.aggregator_key)
        .TellWith(opts, &AggregatorActor::Update, std::move(derived));
  }
  MarkDirty();
  return Status::OK();
}

LiveDataEntry VirtualChannelActor::Latest() {
  const VirtualChannelState& st = state();
  if (st.window.empty() || !CallerMayRead()) {
    return LiveDataEntry{ctx().self().key, 0, 0, false};
  }
  const DataPoint& p = st.window.back();
  return LiveDataEntry{ctx().self().key, p.ts, p.value, true};
}

RangeReply VirtualChannelActor::Range(Micros from, Micros to) {
  RangeReply reply;
  if (!CallerMayRead()) {
    reply.authorized = false;
    return reply;
  }
  for (const DataPoint& p : state().window) {
    if (p.ts >= from && p.ts < to) reply.points.push_back(p);
  }
  return reply;
}

int64_t VirtualChannelActor::TotalPoints() { return state().total_points; }

}  // namespace shm
}  // namespace aodb
