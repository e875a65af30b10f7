#include "cattle/distributor_actor.h"

#include "cattle/retailer_actor.h"

namespace aodb {
namespace cattle {

namespace {

/// Collapses a WhenAll of Status calls into a single Status future.
Future<Status> AllOk(std::vector<Future<Status>> acks) {
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

}  // namespace

// --- DeliveryActor -----------------------------------------------------------

Status DeliveryActor::Plan(std::string distributor_key,
                           std::vector<std::string> cut_keys,
                           std::string source, std::string destination,
                           std::string vehicle) {
  if (planned_) return Status::AlreadyExists("delivery already planned");
  planned_ = true;
  distributor_key_ = std::move(distributor_key);
  cut_keys_ = std::move(cut_keys);
  source_ = std::move(source);
  destination_ = std::move(destination);
  vehicle_ = std::move(vehicle);
  return Status::OK();
}

Future<Status> DeliveryActor::StampAll(ItineraryEntry entry) {
  CallOptions opts;
  opts.cost_us = kCostTransfer;
  // Workflow steps mutate traceability state: never shed under overload.
  opts.priority = MessagePriority::kControl;
  std::vector<Future<Status>> acks;
  acks.reserve(cut_keys_.size());
  for (const std::string& key : cut_keys_) {
    acks.push_back(ctx().Ref<MeatCutActor>(key).CallWith(
        opts, &MeatCutActor::AddItinerary, entry));
  }
  return AllOk(std::move(acks));
}

Future<Status> DeliveryActor::Depart() {
  if (!planned_) {
    return Future<Status>::FromError(
        Status::FailedPrecondition("delivery not planned"));
  }
  if (in_transit_) {
    return Future<Status>::FromError(
        Status::FailedPrecondition("already in transit"));
  }
  in_transit_ = true;
  return StampAll(ItineraryEntry{ctx().Now(), "Distributor",
                                 distributor_key_, source_, vehicle_});
}

Future<Status> DeliveryActor::Arrive(std::string receiver_type,
                                     std::string receiver_key) {
  if (!in_transit_) {
    return Future<Status>::FromError(
        Status::FailedPrecondition("not in transit"));
  }
  in_transit_ = false;
  return StampAll(ItineraryEntry{ctx().Now(), std::move(receiver_type),
                                 std::move(receiver_key), destination_, ""});
}

bool DeliveryActor::InTransit() { return in_transit_; }

std::vector<std::string> DeliveryActor::CutKeys() { return cut_keys_; }

// --- DistributorActor --------------------------------------------------------

Future<std::string> DistributorActor::PlanDelivery(
    std::vector<std::string> cut_keys, std::string source,
    std::string destination, std::string vehicle) {
  std::string key =
      ctx().self().key + ".d" + std::to_string(delivery_seq_++);
  deliveries_.push_back(key);
  Promise<std::string> done;
  ctx().Ref<DeliveryActor>(key)
      .Call(&DeliveryActor::Plan, ctx().self().key, std::move(cut_keys),
            std::move(source), std::move(destination), std::move(vehicle))
      .OnReady([done, key](Result<Status>&& r) {
        Status st = r.ok() ? r.value() : r.status();
        if (st.ok()) {
          done.SetValue(key);
        } else {
          done.SetError(st);
        }
      });
  return done.GetFuture();
}

std::vector<std::string> DistributorActor::Deliveries() {
  return deliveries_;
}

Status DistributorActor::ReceiveCuts(std::vector<MeatCutRecord> cuts) {
  for (MeatCutRecord& cut : cuts) {
    local_cuts_[cut.cut_key] = std::move(cut);
  }
  return Status::OK();
}

Future<Status> DistributorActor::TransferCutsToRetailer(
    std::string retailer_key, std::vector<std::string> cut_keys,
    std::string location) {
  std::vector<MeatCutRecord> copies;
  Micros now = ctx().Now();
  for (const std::string& key : cut_keys) {
    auto it = local_cuts_.find(key);
    if (it == local_cuts_.end()) {
      return Future<Status>::FromError(
          Status::NotFound("cut not held here: " + key));
    }
    MeatCutRecord copy = it->second;
    ++copy.version;
    copy.itinerary.push_back(
        ItineraryEntry{now, "Retailer", retailer_key, location, ""});
    copies.push_back(std::move(copy));
    local_cuts_.erase(it);
  }
  CallOptions opts;
  opts.cost_us = kCostTransfer;
  opts.priority = MessagePriority::kControl;
  return ctx().Ref<RetailerActor>(retailer_key)
      .CallWith(opts, &RetailerActor::ReceiveCuts, std::move(copies));
}

MeatCutRecord DistributorActor::ReadCutLocal(std::string cut_key) {
  auto it = local_cuts_.find(cut_key);
  if (it == local_cuts_.end()) return MeatCutRecord{};
  return it->second;
}

int64_t DistributorActor::LocalCutCount() {
  return static_cast<int64_t>(local_cuts_.size());
}

Status DistributorActor::ValidateOp(const std::string& op,
                                    const std::string&) {
  return Status::InvalidArgument("unknown distributor op: " + op);
}

void DistributorActor::ApplyOp(const std::string&, const std::string&) {}

}  // namespace cattle
}  // namespace aodb
