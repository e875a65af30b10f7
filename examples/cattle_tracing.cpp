// Beef cattle tracking & tracing walkthrough (the paper's case study 2):
// the farm-to-fork life of a cow — registration, collar telemetry with
// geo-fencing, an ownership transfer run as an ACID transaction across
// three actors, slaughter, meat-cut distribution, product creation, and a
// consumer's full supply-chain trace.
//
//   $ ./build/examples/cattle_tracing

#include <cstdio>
#include <cstdlib>

#include "cattle/platform.h"
#include "sim/sim_harness.h"

using namespace aodb;
using namespace aodb::cattle;

namespace {

/// Runs the scheduler until the future resolves; aborts the demo on error.
template <typename T>
T Await(SimHarness& harness, Future<T> f, const char* what) {
  if (!RunUntilReady(harness, f, 120 * kMicrosPerSecond)) {
    std::fprintf(stderr, "%s timed out\n", what);
    std::exit(1);
  }
  auto r = f.Get();
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

/// Await for calls that answer a Status: a non-OK answer aborts the demo.
Status AwaitOk(SimHarness& harness, Future<Status> f, const char* what) {
  Status st = Await(harness, std::move(f), what);
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
  return st;
}

}  // namespace

int main() {
  RuntimeOptions options;
  options.num_silos = 3;
  options.workers_per_silo = 2;
  SimHarness harness(options);
  CattlePlatform::RegisterTypes(harness.cluster());
  CattlePlatform platform(&harness.cluster());
  auto& cluster = harness.cluster();

  // --- A calf is born at farm-jutland ---------------------------------------
  AwaitOk(harness, platform.RegisterCow("cow-1024", "farm-jutland", "Angus"),
          "register");
  std::printf("registered cow-1024 (Angus) at farm-jutland\n");

  // --- Pasture with a geo-fence; the collar reports movement ------------------
  auto cow = cluster.Ref<CowActor>("cow-1024");
  AwaitOk(harness,
          cow.Call(&CowActor::SetPasture,
                   GeoFence::Rectangle(55.00, 10.00, 55.10, 10.10)),
          "set pasture");
  for (int i = 0; i < 8; ++i) {
    // The cow wanders; the last position steps outside the fence.
    double lat = 55.05 + 0.009 * i;
    cow.Tell(&CowActor::ReportCollar,
             CollarReading{harness.Now(), GeoPoint{lat, 10.05},
                           0.4 + 0.1 * i, 38.5});
    harness.RunFor(kMicrosPerSecond);
  }
  auto alerts = Await(
      harness,
      cluster.Ref<FarmerActor>("farm-jutland").Call(&FarmerActor::DrainAlerts),
      "alerts");
  std::printf("collar: 8 readings; geofence alerts at the farm: %zu\n",
              alerts.size());
  for (const GeofenceAlert& a : alerts) {
    std::printf("  ALERT %s escaped to (%.3f, %.3f)\n", a.cow_key.c_str(),
                a.position.lat, a.position.lon);
  }

  // --- Ownership transfer as a 2PC transaction (paper §4.4) --------------------
  Status transfer = AwaitOk(
      harness,
      platform.TransferOwnershipTxn("cow-1024", "farm-jutland", "farm-fyn"),
      "transfer");
  std::printf("ownership transfer farm-jutland -> farm-fyn: %s\n",
              transfer.ToString().c_str());

  // --- Slaughter and cut derivation --------------------------------------------
  auto cuts = Await(harness,
                    platform.SlaughterAndCut("sh-odense", "cow-1024",
                                             "farm-fyn", 3),
                    "slaughter");
  std::printf("slaughtered at sh-odense; %zu meat cuts derived\n",
              cuts.size());

  // --- Distribution to a retailer -------------------------------------------------
  Status shipped = AwaitOk(
      harness,
      platform.ShipCuts("dist-dk", "shop-cph", cuts, "Odense", "Copenhagen"),
      "shipment");
  std::printf("cuts shipped via dist-dk to shop-cph: %s\n",
              shipped.ToString().c_str());

  // --- Product creation and the consumer's trace ----------------------------------
  auto product = Await(harness,
                       cluster.Ref<RetailerActor>("shop-cph")
                           .Call(&RetailerActor::CreateProduct, cuts),
                       "product");
  ProductTrace trace =
      Await(harness, platform.TraceProduct(product), "trace");
  std::printf("\nconsumer trace of %s (sold by %s):\n",
              trace.product_key.c_str(), trace.retailer_key.c_str());
  for (const CutTrace& cut : trace.cuts) {
    std::printf("  %s <- cow %s, raised by %s, slaughtered at %s\n",
                cut.cut_key.c_str(), cut.cow_key.c_str(),
                cut.farmer_key.c_str(), cut.slaughterhouse_key.c_str());
    for (const ItineraryEntry& hop : cut.itinerary) {
      std::printf("      @%-6llds %-14s %-10s %s%s%s\n",
                  static_cast<long long>(hop.ts / kMicrosPerSecond),
                  hop.holder_type.c_str(), hop.holder_key.c_str(),
                  hop.location.c_str(), hop.vehicle.empty() ? "" : " by ",
                  hop.vehicle.c_str());
    }
  }

  // The cow's full ownership history is part of the provenance.
  auto info = Await(harness,
                    cow.WithPrincipal(Principal{"sh-odense", "slaughterhouse"})
                        .Call(&CowActor::Info),
                    "cow info");
  std::printf("\ncow-1024 owner history:");
  for (const std::string& owner : info.owner_history) {
    std::printf(" %s", owner.c_str());
  }
  std::printf("\nOK\n");
  return 0;
}
