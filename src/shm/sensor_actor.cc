#include "shm/sensor_actor.h"

namespace aodb {
namespace shm {

Status SensorActor::Configure(std::string org_key,
                              std::vector<std::string> channel_keys) {
  if (channel_keys.empty()) {
    return Status::InvalidArgument("sensor needs at least one channel");
  }
  state().org_key = std::move(org_key);
  state().channel_keys = std::move(channel_keys);
  MarkDirty();
  return Status::OK();
}

Future<Status> SensorActor::SetupChannels(std::string org_key,
                                          std::vector<ChannelSpec> channels,
                                          bool has_virtual,
                                          VirtualSpec virtual_spec) {
  if (channels.empty()) {
    return Future<Status>::FromValue(
        Status::InvalidArgument("sensor needs at least one channel"));
  }
  state().org_key = org_key;
  state().channel_keys.clear();
  CallOptions opts;
  opts.cost_us = kCostConfigure;
  opts.priority = MessagePriority::kControl;
  std::vector<Future<Status>> acks;
  for (ChannelSpec& spec : channels) {
    state().channel_keys.push_back(spec.key);
    acks.push_back(ctx()
                       .Ref<PhysicalChannelActor>(spec.key)
                       .CallWith(opts, &PhysicalChannelActor::ConfigureFull,
                                 std::move(spec.config), spec.aggs));
  }
  if (has_virtual) {
    acks.push_back(ctx()
                       .Ref<VirtualChannelActor>(virtual_spec.key)
                       .CallWith(opts, &VirtualChannelActor::ConfigureFull,
                                 std::move(virtual_spec.config),
                                 virtual_spec.aggs));
  }
  MarkDirty();
  Promise<Status> done;
  WhenAll(acks).OnReady([done](Result<std::vector<Result<Status>>>&& r) {
    if (!r.ok()) {
      done.SetValue(r.status());
      return;
    }
    for (const auto& ack : r.value()) {
      Status st = ack.ok() ? ack.value() : ack.status();
      if (!st.ok()) {
        done.SetValue(st);
        return;
      }
    }
    done.SetValue(Status::OK());
  });
  return done.GetFuture();
}

void SensorActor::SetPosition(double x, double y) {
  state().position_x = x;
  state().position_y = y;
  MarkDirty();
}

Future<Status> SensorActor::Insert(std::vector<DataPoint> points) {
  return InsertImpl(std::move(points), /*durable=*/false);
}

Future<Status> SensorActor::InsertDurable(std::vector<DataPoint> points) {
  return InsertImpl(std::move(points), /*durable=*/true);
}

Future<Status> SensorActor::InsertImpl(std::vector<DataPoint> points,
                                       bool durable) {
  SensorState& st = state();
  if (st.channel_keys.empty()) {
    return Future<Status>::FromValue(
        Status::FailedPrecondition("sensor not configured"));
  }
  ++st.packets;
  size_t channels = st.channel_keys.size();
  size_t per_channel = (points.size() + channels - 1) / channels;
  std::vector<Future<Status>> acks;
  acks.reserve(channels);
  for (size_t c = 0; c < channels; ++c) {
    size_t begin = c * per_channel;
    if (begin >= points.size()) break;
    size_t end = std::min(points.size(), begin + per_channel);
    std::vector<DataPoint> batch(points.begin() + begin,
                                 points.begin() + end);
    CallOptions opts;
    opts.cost_us = kCostChannelAppend;
    // Interior pipeline hop of already-admitted data: never shed — data
    // accepted at the edge must reach its channels, or the sensor's ack
    // would lie. Shedding happens at the sensor-insert edge only.
    opts.priority = MessagePriority::kControl;
    auto ref = ctx().Ref<PhysicalChannelActor>(st.channel_keys[c]);
    acks.push_back(
        durable ? ref.CallWith(opts, &PhysicalChannelActor::AppendDurable,
                               std::move(batch))
                : ref.CallWith(opts, &PhysicalChannelActor::Append,
                               std::move(batch)));
  }
  Promise<Status> done;
  WhenAll(acks).OnReady([done](Result<std::vector<Result<Status>>>&& r) {
    if (!r.ok()) {
      done.SetValue(r.status());
      return;
    }
    for (const auto& ack : r.value()) {
      Status st = ack.ok() ? ack.value() : ack.status();
      if (!st.ok()) {
        done.SetValue(st);
        return;
      }
    }
    done.SetValue(Status::OK());
  });
  return done.GetFuture();
}

int64_t SensorActor::Packets() { return state().packets; }

std::vector<std::string> SensorActor::ChannelKeys() {
  return state().channel_keys;
}

}  // namespace shm
}  // namespace aodb
