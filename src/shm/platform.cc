#include "shm/platform.h"

#include <cstdlib>

#include "actor/method_registry.h"
#include "actor/retry_async.h"
#include "common/logging.h"
#include "aodb/index.h"
#include "aodb/registry.h"
#include "aodb/wire.h"

namespace aodb {
namespace shm {

namespace {

// Registers every cross-silo-callable SHM method with the process-global
// MethodRegistry so remote sends use the serialized wire lane. Idempotent;
// a failure here is a programming error (method-id collision), so abort
// loudly rather than run with silently closure-only dispatch.
void RegisterShmWireMethods() {
  MethodRegistry& reg = MethodRegistry::Global();
  Status st = Status::OK();
  auto add = [&st](Status s) {
    if (st.ok()) st = std::move(s);
  };
  add(reg.Register(OrganizationActor::kTypeName, &OrganizationActor::SetName,
                   "SetName"));
  add(reg.Register(OrganizationActor::kTypeName,
                   &OrganizationActor::AddProject, "AddProject"));
  add(reg.Register(OrganizationActor::kTypeName, &OrganizationActor::AddSensor,
                   "AddSensor"));
  add(reg.Register(OrganizationActor::kTypeName, &OrganizationActor::AddUser,
                   "AddUser"));
  add(reg.Register(OrganizationActor::kTypeName, &OrganizationActor::LiveData,
                   "LiveData"));
  add(reg.Register(OrganizationActor::kTypeName,
                   &OrganizationActor::ChannelKeys, "ChannelKeys"));
  add(reg.Register(OrganizationActor::kTypeName, &OrganizationActor::Projects,
                   "Projects"));
  add(reg.Register(OrganizationActor::kTypeName,
                   &OrganizationActor::SensorCount, "SensorCount"));
  add(reg.Register(UserActor::kTypeName, &UserActor::Notify, "Notify"));
  add(reg.Register(UserActor::kTypeName, &UserActor::DrainAlerts,
                   "DrainAlerts"));
  add(reg.Register(UserActor::kTypeName, &UserActor::TotalAlerts,
                   "TotalAlerts"));
  add(reg.Register(AggregatorActor::kTypeName, &AggregatorActor::Configure,
                   "Configure"));
  add(reg.Register(AggregatorActor::kTypeName, &AggregatorActor::Update,
                   "Update"));
  add(reg.Register(AggregatorActor::kTypeName, &AggregatorActor::Query,
                   "Query"));
  add(reg.Register(AggregatorActor::kTypeName, &AggregatorActor::WindowCount,
                   "WindowCount"));
  add(reg.Register(SensorActor::kTypeName, &SensorActor::Configure,
                   "Configure"));
  add(reg.Register(SensorActor::kTypeName, &SensorActor::SetupChannels,
                   "SetupChannels"));
  add(reg.Register(SensorActor::kTypeName, &SensorActor::SetPosition,
                   "SetPosition"));
  add(reg.Register(SensorActor::kTypeName, &SensorActor::Insert, "Insert"));
  add(reg.Register(SensorActor::kTypeName, &SensorActor::InsertDurable,
                   "InsertDurable"));
  add(reg.Register(SensorActor::kTypeName, &SensorActor::Packets, "Packets"));
  add(reg.Register(SensorActor::kTypeName, &SensorActor::ChannelKeys,
                   "ChannelKeys"));
  add(reg.Register(PhysicalChannelActor::kTypeName,
                   &PhysicalChannelActor::Configure, "Configure"));
  add(reg.Register(PhysicalChannelActor::kTypeName,
                   &PhysicalChannelActor::ConfigureFull, "ConfigureFull"));
  add(reg.Register(PhysicalChannelActor::kTypeName,
                   &PhysicalChannelActor::Append, "Append"));
  add(reg.Register(PhysicalChannelActor::kTypeName,
                   &PhysicalChannelActor::AppendDurable, "AppendDurable"));
  add(reg.Register(PhysicalChannelActor::kTypeName,
                   &PhysicalChannelActor::Latest, "Latest"));
  add(reg.Register(PhysicalChannelActor::kTypeName,
                   &PhysicalChannelActor::Range, "Range"));
  add(reg.Register(PhysicalChannelActor::kTypeName,
                   &PhysicalChannelActor::AccumulatedChange,
                   "AccumulatedChange"));
  add(reg.Register(PhysicalChannelActor::kTypeName,
                   &PhysicalChannelActor::TotalPoints, "TotalPoints"));
  add(reg.Register(VirtualChannelActor::kTypeName,
                   &VirtualChannelActor::Configure, "Configure"));
  add(reg.Register(VirtualChannelActor::kTypeName,
                   &VirtualChannelActor::ConfigureFull, "ConfigureFull"));
  add(reg.Register(VirtualChannelActor::kTypeName,
                   &VirtualChannelActor::SourceUpdate, "SourceUpdate"));
  add(reg.Register(VirtualChannelActor::kTypeName,
                   &VirtualChannelActor::Latest, "Latest"));
  add(reg.Register(VirtualChannelActor::kTypeName, &VirtualChannelActor::Range,
                   "Range"));
  add(reg.Register(VirtualChannelActor::kTypeName,
                   &VirtualChannelActor::TotalPoints, "TotalPoints"));
  add(RegisterAodbCoreWireMethods());
  if (!st.ok()) {
    AODB_LOG(Error, "SHM wire registration failed: %s", st.ToString().c_str());
    std::abort();
  }
}

}  // namespace

void ShmPlatform::RegisterTypes(Cluster& cluster,
                                PersistenceOptions channel_persistence) {
  RegisterShmWireMethods();
  cluster.RegisterActorType<OrganizationActor>();
  cluster.RegisterActorType<UserActor>();
  cluster.RegisterActorType<AggregatorActor>();
  cluster.RegisterActorType<RegistryActor>();
  cluster.RegisterActorType<IndexActor>();
  cluster.RegisterActorType(
      SensorActor::kTypeName, [channel_persistence](const ActorId&) {
        return std::make_unique<SensorActor>(channel_persistence);
      });
  cluster.RegisterActorType(
      PhysicalChannelActor::kTypeName, [channel_persistence](const ActorId&) {
        return std::make_unique<PhysicalChannelActor>(channel_persistence);
      });
  cluster.RegisterActorType(
      VirtualChannelActor::kTypeName, [channel_persistence](const ActorId&) {
        return std::make_unique<VirtualChannelActor>(channel_persistence);
      });
}

void ShmPlatform::ApplyPaperPlacement(Cluster& cluster) {
  cluster.SetTypePlacement(OrganizationActor::kTypeName, Placement::kRandom);
  cluster.SetTypePlacement(UserActor::kTypeName, Placement::kRandom);
  cluster.SetTypePlacement(SensorActor::kTypeName, Placement::kRandom);
  cluster.SetTypePlacement(PhysicalChannelActor::kTypeName,
                           Placement::kPreferLocal);
  cluster.SetTypePlacement(VirtualChannelActor::kTypeName,
                           Placement::kPreferLocal);
  cluster.SetTypePlacement(AggregatorActor::kTypeName,
                           Placement::kPreferLocal);
}

Future<Status> ShmPlatform::Setup(const ShmTopology& t) {
  std::vector<Future<Status>> acks;
  int orgs = NumOrgs(t);
  CallOptions cfg;
  cfg.cost_us = kCostConfigure;
  // Topology setup is control traffic: never shed under overload.
  cfg.priority = MessagePriority::kControl;
  for (int o = 0; o < orgs; ++o) {
    auto org = cluster_->Ref<OrganizationActor>(OrgKey(o));
    acks.push_back(
        org.CallWith(cfg, &OrganizationActor::SetName, "Organization " +
                                                            std::to_string(o)));
    acks.push_back(org.CallWith(cfg, &OrganizationActor::AddProject,
                                std::string("p0"),
                                std::string("Monitoring project")));
    acks.push_back(
        org.CallWith(cfg, &OrganizationActor::AddUser, UserKey(o)));
  }
  for (int s = 0; s < t.sensors; ++s) {
    int org = OrgOf(t, s);
    std::vector<ChannelSpec> specs;
    std::vector<std::string> org_channel_keys;
    bool has_virtual = HasVirtual(t, s);
    std::string virtual_key = has_virtual ? VirtualKey(s) : std::string();
    for (int c = 0; c < t.channels_per_sensor; ++c) {
      ChannelSpec spec;
      spec.key = ChannelKey(s, c);
      spec.config.org_key = OrgKey(org);
      spec.config.aggregator_key = HourAggKey(spec.key);
      spec.config.virtual_key = virtual_key;
      spec.config.window_capacity = t.window_capacity;
      if (t.enable_alerts) {
        spec.config.alert_user_key = UserKey(org);
        spec.config.threshold_high = t.threshold_high;
        spec.config.has_threshold_high = true;
      }
      spec.config.indexed = t.enable_indexing;
      spec.aggs = AggChainSpec{HourAggKey(spec.key), DayAggKey(spec.key),
                               MonthAggKey(spec.key), t.hour_window_us,
                               t.day_window_us, t.month_window_us};
      org_channel_keys.push_back(spec.key);
      specs.push_back(std::move(spec));
    }
    VirtualSpec vspec;
    if (has_virtual) {
      vspec.key = virtual_key;
      vspec.config.org_key = OrgKey(org);
      vspec.config.aggregator_key = HourAggKey(virtual_key);
      for (int c = 0; c < t.channels_per_sensor; ++c) {
        vspec.config.source_keys.push_back(ChannelKey(s, c));
      }
      vspec.config.window_capacity = t.window_capacity;
      vspec.aggs = AggChainSpec{HourAggKey(virtual_key), DayAggKey(virtual_key),
                                MonthAggKey(virtual_key), t.hour_window_us,
                                t.day_window_us, t.month_window_us};
      org_channel_keys.push_back(virtual_key);
    }
    acks.push_back(cluster_->Ref<SensorActor>(SensorKey(s))
                       .CallWith(cfg, &SensorActor::SetupChannels, OrgKey(org),
                                 std::move(specs), has_virtual,
                                 std::move(vspec)));
    acks.push_back(cluster_->Ref<OrganizationActor>(OrgKey(org))
                       .CallWith(cfg, &OrganizationActor::AddSensor,
                                 std::string("p0"), SensorKey(s),
                                 std::move(org_channel_keys)));
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

Future<Status> ShmPlatform::Insert(const ShmTopology& t, int sensor,
                                   std::vector<DataPoint> points) {
  CallOptions opts;
  opts.cost_us = kCostSensorInsert;
  // Sensor ingest is the first traffic shed when a silo saturates; the
  // retry policy backs off on the resulting Overloaded and re-sends.
  opts.priority = MessagePriority::kTelemetry;
  Cluster* cluster = cluster_;
  bool durable = client_options_.durable_acks;
  Principal tenant = TenantOf(t, sensor, false);
  std::string key = SensorKey(sensor);
  auto shared_points = std::make_shared<std::vector<DataPoint>>(
      std::move(points));
  return RetryAsync<Status>(
      cluster_->client_executor(), client_options_.retry, NextSeed(),
      [cluster, opts, durable, tenant, key, shared_points] {
        auto ref =
            cluster->Ref<SensorActor>(key).WithPrincipal(tenant);
        std::vector<DataPoint> batch = *shared_points;
        return durable ? ref.CallWith(opts, &SensorActor::InsertDurable,
                                      std::move(batch))
                       : ref.CallWith(opts, &SensorActor::Insert,
                                      std::move(batch));
      },
      IsTransient,
      [this](const Status&) { insert_retries_.fetch_add(1); });
}

Future<std::vector<LiveDataEntry>> ShmPlatform::LiveData(const ShmTopology& t,
                                                         int org) {
  CallOptions opts;
  opts.cost_us = kCostOrgLiveFanout;
  opts.priority = MessagePriority::kQuery;
  Cluster* cluster = cluster_;
  Principal tenant = TenantOf(t, org, true);
  std::string key = OrgKey(org);
  return RetryAsync<std::vector<LiveDataEntry>>(
      cluster_->client_executor(), client_options_.retry, NextSeed(),
      [cluster, opts, tenant, key] {
        return cluster->Ref<OrganizationActor>(key)
            .WithPrincipal(tenant)
            .CallWith(opts, &OrganizationActor::LiveData);
      },
      IsTransient,
      [this](const Status&) { insert_retries_.fetch_add(1); });
}

Future<RangeReply> ShmPlatform::RawRange(const ShmTopology& t, int sensor,
                                         int channel, Micros from, Micros to) {
  CallOptions opts;
  opts.cost_us = kCostChannelRange;
  opts.priority = MessagePriority::kQuery;
  Cluster* cluster = cluster_;
  Principal tenant = TenantOf(t, sensor, false);
  std::string key = ChannelKey(sensor, channel);
  return RetryAsync<RangeReply>(
      cluster_->client_executor(), client_options_.retry, NextSeed(),
      [cluster, opts, tenant, key, from, to] {
        return cluster->Ref<PhysicalChannelActor>(key)
            .WithPrincipal(tenant)
            .CallWith(opts, &PhysicalChannelActor::Range, from, to);
      },
      IsTransient,
      [this](const Status&) { insert_retries_.fetch_add(1); });
}

Future<std::vector<AggregateView>> ShmPlatform::HourAggregates(
    const ShmTopology& t, int sensor, int channel, Micros from, Micros to) {
  CallOptions opts;
  opts.cost_us = kCostChannelRange;
  return cluster_
      ->Ref<AggregatorActor>(HourAggKey(ChannelKey(sensor, channel)))
      .WithPrincipal(TenantOf(t, sensor, false))
      .CallWith(opts, &AggregatorActor::Query, from, to);
}

}  // namespace shm
}  // namespace aodb
