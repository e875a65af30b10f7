#include "cattle/slaughterhouse_actor.h"

#include "cattle/distributor_actor.h"

namespace aodb {
namespace cattle {

Future<Status> SlaughterhouseActor::Slaughter(std::string cow_key) {
  Promise<Status> done;
  std::string self_key = ctx().self().key;
  auto cow = ctx().Ref<CowActor>(cow_key);
  std::vector<std::string>* processed = &processed_cows_;
  cow.Call(&CowActor::ExecuteOp, std::string(CowActor::kOpSlaughter),
           std::string())
      .OnReady([done, processed, cow_key](Result<Status>&& r) {
        Status st = r.ok() ? r.value() : r.status();
        // Note: `processed` stays valid — the activation outlives its
        // pending calls, and the continuation runs as part of message
        // processing on this silo.
        if (st.ok()) processed->push_back(cow_key);
        done.SetValue(st);
      });
  return done.GetFuture();
}

std::vector<std::string> SlaughterhouseActor::ProcessedCows() {
  return processed_cows_;
}

Future<std::vector<std::string>> SlaughterhouseActor::CreateCuts(
    std::string cow_key, std::string farmer_key, int num_cuts) {
  std::vector<std::string> keys;
  std::vector<Future<Status>> acks;
  Micros now = ctx().Now();
  std::string self_key = ctx().self().key;
  CallOptions opts;
  opts.cost_us = kCostTransfer;
  // Workflow steps mutate traceability state: never shed under overload.
  opts.priority = MessagePriority::kControl;
  for (int i = 0; i < num_cuts; ++i) {
    std::string key = cow_key + ".cut" + std::to_string(i);
    keys.push_back(key);
    acks.push_back(ctx().Ref<MeatCutActor>(key).CallWith(
        opts, &MeatCutActor::Create, cow_key, farmer_key, self_key, now,
        std::string("slaughterhouse floor")));
  }
  Promise<std::vector<std::string>> done;
  WhenAll(acks).OnReady(
      [done, keys](Result<std::vector<Result<Status>>>&& r) {
        if (!r.ok()) {
          done.SetError(r.status());
          return;
        }
        for (const auto& ack : r.value()) {
          Status st = ack.ok() ? ack.value() : ack.status();
          if (!st.ok()) {
            done.SetError(st);
            return;
          }
        }
        done.SetValue(keys);
      });
  return done.GetFuture();
}

std::vector<std::string> SlaughterhouseActor::CreateCutsLocal(
    std::string cow_key, std::string farmer_key, int num_cuts) {
  std::vector<std::string> keys;
  Micros now = ctx().Now();
  for (int i = 0; i < num_cuts; ++i) {
    MeatCutRecord rec;
    rec.cut_key = cow_key + ".cut" + std::to_string(i);
    rec.version = 1;
    rec.cow_key = cow_key;
    rec.farmer_key = farmer_key;
    rec.slaughterhouse_key = ctx().self().key;
    rec.slaughtered_at = now;
    rec.itinerary.push_back(ItineraryEntry{
        now, "Slaughterhouse", ctx().self().key, "slaughterhouse floor", ""});
    keys.push_back(rec.cut_key);
    local_cuts_[rec.cut_key] = std::move(rec);
  }
  return keys;
}

Future<Status> SlaughterhouseActor::TransferCutsTo(
    std::string distributor_key, std::vector<std::string> cut_keys,
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
        ItineraryEntry{now, "Distributor", distributor_key, location, ""});
    copies.push_back(std::move(copy));
    local_cuts_.erase(it);
  }
  CallOptions opts;
  opts.cost_us = kCostTransfer;
  // Object copies travel in the message (the §4.3 copying overhead).
  opts.priority = MessagePriority::kControl;
  return ctx().Ref<DistributorActor>(distributor_key)
      .CallWith(opts, &DistributorActor::ReceiveCuts, std::move(copies));
}

MeatCutRecord SlaughterhouseActor::ReadCutLocal(std::string cut_key) {
  auto it = local_cuts_.find(cut_key);
  if (it == local_cuts_.end()) return MeatCutRecord{};
  return it->second;
}

int64_t SlaughterhouseActor::LocalCutCount() {
  return static_cast<int64_t>(local_cuts_.size());
}

Status SlaughterhouseActor::ValidateOp(const std::string& op,
                                       const std::string&) {
  return Status::InvalidArgument("unknown slaughterhouse op: " + op);
}

void SlaughterhouseActor::ApplyOp(const std::string&, const std::string&) {}

}  // namespace cattle
}  // namespace aodb
