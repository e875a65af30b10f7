// AODB feature tour: the database capabilities layered over the actor
// runtime — secondary indexes, type-wide queries, indexed queries, and
// multi-actor transactions — on a small inventory of device actors.
//
//   $ ./build/examples/aodb_features

#include <cstdio>
#include <cstdlib>

#include "actor/method_registry.h"
#include "aodb/index.h"
#include "aodb/query.h"
#include "aodb/registry.h"
#include "aodb/txn.h"
#include "aodb/wire.h"
#include "sim/sim_harness.h"

using namespace aodb;

/// A spare-part inventory slot at a maintenance depot. Stock moves between
/// depots transactionally.
class DepotActor : public TransactionalActor {
 public:
  static constexpr char kTypeName[] = "Depot";

  Status Init(std::string region, int64_t stock) {
    region_ = std::move(region);
    stock_ = stock;
    TypeRegistry::Add(ctx(), kTypeName, ctx().self().key);
    ActorIndex("depot_by_region").Insert(ctx(), region_, ctx().self().key);
    return Status::OK();
  }
  int64_t Stock() { return stock_; }
  std::string Region() { return region_; }

 protected:
  Status ValidateOp(const std::string& op, const std::string& arg) override {
    int64_t n = std::atoll(arg.c_str());
    if (op == "receive") return Status::OK();
    if (op == "ship") {
      if (stock_ - staged_out_ < n) {
        return Status::FailedPrecondition("not enough stock");
      }
      staged_out_ += n;
      return Status::OK();
    }
    return Status::InvalidArgument("unknown op " + op);
  }
  void ApplyOp(const std::string& op, const std::string& arg) override {
    int64_t n = std::atoll(arg.c_str());
    if (op == "receive") stock_ += n;
    if (op == "ship") {
      stock_ -= n;
      staged_out_ -= n;
    }
  }
  void UnstageOp(const std::string& op, const std::string& arg) override {
    if (op == "ship") staged_out_ -= std::atoll(arg.c_str());
  }

 private:
  std::string region_;
  int64_t stock_ = 0;
  int64_t staged_out_ = 0;
};

/// The result of a call the simulator has already been run for; exits
/// non-zero if it is still pending or failed.
template <typename T>
T Must(const Future<T>& f, const char* what) {
  if (!f.Ready()) {
    std::fprintf(stderr, "%s did not complete\n", what);
    std::exit(1);
  }
  Result<T> r = f.Get();
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

/// Wire registrations: a call between silos, or from the client, travels
/// as a serialized frame and needs the invoked method's registration.
Status RegisterDepotWireMethods() {
  MethodRegistry& reg = MethodRegistry::Global();
  AODB_RETURN_NOT_OK(RegisterAodbCoreWireMethods());
  AODB_RETURN_NOT_OK(RegisterTransactionalWireMethods(DepotActor::kTypeName));
  AODB_RETURN_NOT_OK(
      reg.Register(DepotActor::kTypeName, &DepotActor::Init, "Init"));
  AODB_RETURN_NOT_OK(
      reg.Register(DepotActor::kTypeName, &DepotActor::Stock, "Stock"));
  return reg.Register(DepotActor::kTypeName, &DepotActor::Region, "Region");
}

int main() {
  RuntimeOptions options;
  options.num_silos = 2;
  options.workers_per_silo = 2;
  SimHarness harness(options);
  auto& cluster = harness.cluster();
  Status wired = RegisterDepotWireMethods();
  if (!wired.ok()) {
    std::fprintf(stderr, "registration failed: %s\n",
                 wired.ToString().c_str());
    return 1;
  }
  cluster.RegisterActorType<DepotActor>();
  cluster.RegisterActorType<RegistryActor>();
  cluster.RegisterActorType<IndexActor>();

  // Create depots across regions; each registers itself in the type
  // registry and the region index on Init.
  struct Spec {
    const char* key;
    const char* region;
    int64_t stock;
  };
  const Spec kDepots[] = {
      {"depot-cph", "dk", 40}, {"depot-aarhus", "dk", 25},
      {"depot-oslo", "no", 10}, {"depot-bergen", "no", 5},
      {"depot-berlin", "de", 70},
  };
  for (const Spec& d : kDepots) {
    cluster.Ref<DepotActor>(d.key).Tell(&DepotActor::Init,
                                        std::string(d.region), d.stock);
  }
  harness.RunFor(10 * kMicrosPerSecond);

  // --- Type-wide query (registry + fan-out) -----------------------------------
  auto all_stock = QueryAll<DepotActor>(cluster, &DepotActor::Stock);
  harness.RunFor(10 * kMicrosPerSecond);
  std::vector<int64_t> stocks = Must(all_stock, "QueryAll");
  int64_t total = 0;
  for (int64_t s : stocks) total += s;
  std::printf("global stock across %zu depots: %lld\n", stocks.size(),
              static_cast<long long>(total));

  // --- Indexed query ------------------------------------------------------------
  ActorIndex by_region("depot_by_region");
  auto danish = QueryByIndex<DepotActor>(cluster, by_region, "dk",
                                         &DepotActor::Stock);
  harness.RunFor(10 * kMicrosPerSecond);
  std::vector<int64_t> dk_stocks = Must(danish, "QueryByIndex");
  int64_t dk_total = 0;
  for (int64_t s : dk_stocks) dk_total += s;
  std::printf("stock in region dk (via index): %lld across %zu depots\n",
              static_cast<long long>(dk_total), dk_stocks.size());

  // --- Filtered query -------------------------------------------------------------
  auto low = QueryWhere<DepotActor>(cluster, &DepotActor::Stock,
                                    [](const int64_t& s) { return s < 20; });
  harness.RunFor(10 * kMicrosPerSecond);
  std::printf("depots below the restock threshold: %zu\n",
              Must(low, "QueryWhere").size());

  // --- Multi-actor transaction ----------------------------------------------------
  // Rebalance 15 units Berlin -> Oslo atomically.
  TxnManager txn(&cluster);
  auto moved = txn.Run({
      TxnOp{DepotActor::kTypeName, "depot-berlin", "ship", "15"},
      TxnOp{DepotActor::kTypeName, "depot-oslo", "receive", "15"},
  });
  harness.RunFor(10 * kMicrosPerSecond);
  Status rebalanced = Must(moved, "rebalance");
  std::printf("rebalance 15 berlin->oslo: %s\n",
              rebalanced.ToString().c_str());
  if (!rebalanced.ok()) return 1;

  // An impossible transfer aborts atomically.
  auto too_much = txn.Run({
      TxnOp{DepotActor::kTypeName, "depot-bergen", "ship", "500"},
      TxnOp{DepotActor::kTypeName, "depot-cph", "receive", "500"},
  });
  harness.RunFor(10 * kMicrosPerSecond);
  Status overdraw = Must(too_much, "overdraw attempt");
  std::printf("overdraw attempt: %s\n", overdraw.ToString().c_str());
  if (overdraw.ok()) return 1;  // It must abort, leaving stock untouched.

  auto oslo = cluster.Ref<DepotActor>("depot-oslo").Call(&DepotActor::Stock);
  auto berlin =
      cluster.Ref<DepotActor>("depot-berlin").Call(&DepotActor::Stock);
  auto cph = cluster.Ref<DepotActor>("depot-cph").Call(&DepotActor::Stock);
  harness.RunFor(5 * kMicrosPerSecond);
  std::printf("final stock: oslo=%lld berlin=%lld cph=%lld\n",
              static_cast<long long>(Must(oslo, "oslo stock")),
              static_cast<long long>(Must(berlin, "berlin stock")),
              static_cast<long long>(Must(cph, "cph stock")));
  std::printf("OK\n");
  return 0;
}
