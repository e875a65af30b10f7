// End-to-end tests of the beef cattle tracking & tracing platform:
// herd management, collar ingestion, geo-fencing, ownership transfer via
// transaction and via workflow, the slaughter -> cuts -> delivery ->
// product pipeline in both meat-cut models, and consumer tracing.

#include <gtest/gtest.h>

#include "cattle/platform.h"
#include "sim/sim_harness.h"

namespace aodb {
namespace cattle {
namespace {

class CattleSimTest : public ::testing::Test {
 protected:
  CattleSimTest() : harness_(MakeOptions()), platform_(&harness_.cluster()) {
    CattlePlatform::RegisterTypes(harness_.cluster());
    // Startup assertion: every registered type must have wire methods, so
    // no test hits an unregistered cross-silo call mid-run.
    Status wires = harness_.cluster().CheckWireRegistry();
    EXPECT_TRUE(wires.ok()) << wires.ToString();
  }

  static RuntimeOptions MakeOptions() {
    RuntimeOptions o;
    o.num_silos = 3;
    o.workers_per_silo = 2;
    return o;
  }

  /// Runs the scheduler and unwraps a future that must complete OK.
  template <typename T>
  T Must(Future<T> f, Micros run_for = 10 * kMicrosPerSecond) {
    harness_.RunFor(run_for);
    auto r = f.Get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  Status MustOk(Future<Status> f, Micros run_for = 10 * kMicrosPerSecond) {
    Status st = Must(std::move(f), run_for);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return st;
  }

  SimHarness harness_;
  CattlePlatform platform_;
};

TEST_F(CattleSimTest, RegisterCowUpdatesBothSides) {
  MustOk(platform_.RegisterCow("cow-1", "farm-1", "Angus"));
  auto herd = harness_.cluster().Ref<FarmerActor>("farm-1").Call(
      &FarmerActor::Herd);
  auto info =
      harness_.cluster().Ref<CowActor>("cow-1").Call(&CowActor::Info);
  harness_.RunFor(kMicrosPerSecond);
  ASSERT_EQ(herd.Get().value().size(), 1u);
  EXPECT_EQ(herd.Get().value()[0], "cow-1");
  EXPECT_EQ(info.Get().value().owner_farmer, "farm-1");
  EXPECT_EQ(info.Get().value().breed, "Angus");
}

TEST_F(CattleSimTest, CollarReadingsBuildTrajectory) {
  MustOk(platform_.RegisterCow("cow-2", "farm-1", "Hereford"));
  auto cow = harness_.cluster().Ref<CowActor>("cow-2");
  Micros base = harness_.Now();
  for (int i = 0; i < 10; ++i) {
    cow.Tell(&CowActor::ReportCollar,
             CollarReading{base + i * kMicrosPerSecond,
                           GeoPoint{55.0 + i * 0.001, 12.0}, 0.5, 38.6});
  }
  harness_.RunFor(5 * kMicrosPerSecond);
  auto traj = cow.Call(&CowActor::Trajectory, Micros{0}, Micros{1} << 60);
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(traj.Get().value().size(), 10u);
  auto info = cow.Call(&CowActor::Info);
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_TRUE(info.Get().value().has_location);
  EXPECT_NEAR(info.Get().value().location.lat, 55.009, 1e-9);
}

TEST_F(CattleSimTest, GeofenceBreachAlertsTheFarmer) {
  MustOk(platform_.RegisterCow("cow-3", "farm-2", "Angus"));
  auto cow = harness_.cluster().Ref<CowActor>("cow-3");
  MustOk(cow.Call(&CowActor::SetPasture,
                  GeoFence::Rectangle(55.0, 12.0, 55.1, 12.1)));
  // Inside: no alert. Outside: alert.
  cow.Tell(&CowActor::ReportCollar,
           CollarReading{harness_.Now(), GeoPoint{55.05, 12.05}, 0.1, 38.5});
  cow.Tell(&CowActor::ReportCollar,
           CollarReading{harness_.Now(), GeoPoint{55.2, 12.05}, 1.9, 38.5});
  harness_.RunFor(5 * kMicrosPerSecond);
  auto alerts = harness_.cluster().Ref<FarmerActor>("farm-2").Call(
      &FarmerActor::TotalAlerts);
  auto breaches = cow.Call(&CowActor::GeofenceBreaches);
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(alerts.Get().value(), 1);
  EXPECT_EQ(breaches.Get().value(), 1);
}

TEST_F(CattleSimTest, OwnershipTransferViaTransaction) {
  MustOk(platform_.RegisterCow("cow-4", "farm-a", "Angus"));
  MustOk(platform_.TransferOwnershipTxn("cow-4", "farm-a", "farm-b"));
  auto a = harness_.cluster().Ref<FarmerActor>("farm-a").Call(
      &FarmerActor::HerdSize);
  auto b = harness_.cluster().Ref<FarmerActor>("farm-b").Call(
      &FarmerActor::HerdSize);
  auto info =
      harness_.cluster().Ref<CowActor>("cow-4").Call(&CowActor::Info);
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(a.Get().value(), 0);
  EXPECT_EQ(b.Get().value(), 1);
  EXPECT_EQ(info.Get().value().owner_farmer, "farm-b");
  // Ownership history preserves provenance.
  ASSERT_EQ(info.Get().value().owner_history.size(), 2u);
  EXPECT_EQ(info.Get().value().owner_history[0], "farm-a");
}

TEST_F(CattleSimTest, TransactionAbortsOnInvalidTransfer) {
  MustOk(platform_.RegisterCow("cow-5", "farm-a", "Angus"));
  // farm-c does not own cow-5: remove_cow validation must abort the txn,
  // leaving every participant unchanged.
  auto f = platform_.TransferOwnershipTxn("cow-5", "farm-c", "farm-b");
  harness_.RunFor(20 * kMicrosPerSecond);
  auto st = f.Get();
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st.value().ok());
  auto info =
      harness_.cluster().Ref<CowActor>("cow-5").Call(&CowActor::Info);
  auto b = harness_.cluster().Ref<FarmerActor>("farm-b").Call(
      &FarmerActor::HerdSize);
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(info.Get().value().owner_farmer, "farm-a")
      << "aborted transaction must not change the cow";
  EXPECT_EQ(b.Get().value(), 0);
}

TEST_F(CattleSimTest, OwnershipTransferViaWorkflow) {
  MustOk(platform_.RegisterCow("cow-6", "farm-a", "Angus"));
  MustOk(platform_.TransferOwnershipWorkflow("cow-6", "farm-a", "farm-b"));
  auto info =
      harness_.cluster().Ref<CowActor>("cow-6").Call(&CowActor::Info);
  auto b = harness_.cluster().Ref<FarmerActor>("farm-b").Call(
      &FarmerActor::Owns, std::string("cow-6"));
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(info.Get().value().owner_farmer, "farm-b");
  EXPECT_TRUE(b.Get().value());
}

TEST_F(CattleSimTest, WorkflowCompensatesOnFailure) {
  MustOk(platform_.RegisterCow("cow-7", "farm-a", "Angus"));
  // Put cow-7 in farm-b's herd up front so the workflow's second step
  // (add_cow to farm-b) fails permanently, forcing compensation of the
  // first step (remove from farm-a is undone by add_cow).
  MustOk(harness_.cluster()
             .Ref<FarmerActor>("farm-b")
             .Call(&FarmerActor::RegisterCow, std::string("cow-7")));
  auto f = platform_.TransferOwnershipWorkflow("cow-7", "farm-a", "farm-b");
  harness_.RunFor(30 * kMicrosPerSecond);
  auto st = f.Get();
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st.value().ok());
  auto owns = harness_.cluster().Ref<FarmerActor>("farm-a").Call(
      &FarmerActor::Owns, std::string("cow-7"));
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_TRUE(owns.Get().value())
      << "compensation must restore farm-a's herd";
  EXPECT_GT(platform_.workflows().compensations(), 0);
}

TEST_F(CattleSimTest, SlaughterPipelineAndConsumerTrace) {
  MustOk(platform_.RegisterCow("cow-8", "farm-a", "Angus"));
  auto cuts = Must(platform_.SlaughterAndCut("sh-1", "cow-8", "farm-a", 4));
  ASSERT_EQ(cuts.size(), 4u);
  // A slaughtered cow cannot be slaughtered twice.
  auto again = harness_.cluster()
                   .Ref<SlaughterhouseActor>("sh-1")
                   .Call(&SlaughterhouseActor::Slaughter,
                         std::string("cow-8"));
  harness_.RunFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(again.Get().ok());
  EXPECT_FALSE(again.Get().value().ok());
  // Ship two cuts to a retailer and build a product.
  MustOk(platform_.ShipCuts("dist-1", "shop-1",
                            {cuts[0], cuts[1]}, "Jutland", "Copenhagen"));
  auto product = Must(harness_.cluster()
                          .Ref<RetailerActor>("shop-1")
                          .Call(&RetailerActor::CreateProduct,
                                std::vector<std::string>{cuts[0], cuts[1]}));
  auto trace = Must(platform_.TraceProduct(product));
  EXPECT_EQ(trace.retailer_key, "shop-1");
  ASSERT_EQ(trace.cuts.size(), 2u);
  for (const CutTrace& cut : trace.cuts) {
    EXPECT_EQ(cut.cow_key, "cow-8");
    EXPECT_EQ(cut.farmer_key, "farm-a");
    EXPECT_EQ(cut.slaughterhouse_key, "sh-1");
    // Itinerary: slaughterhouse -> distributor departure -> retailer.
    ASSERT_GE(cut.itinerary.size(), 3u);
    EXPECT_EQ(cut.itinerary.front().holder_type, "Slaughterhouse");
    EXPECT_EQ(cut.itinerary.back().holder_type, "Retailer");
  }
}

TEST_F(CattleSimTest, ObjectCutModelTransfersAndTraces) {
  // Figure 5 variant: cuts as versioned non-actor objects copied along the
  // chain; tracing is answered from embedded state.
  MustOk(platform_.RegisterCow("cow-9", "farm-a", "Angus"));
  auto sh = harness_.cluster().Ref<SlaughterhouseActor>("sh-2");
  MustOk(sh.Call(&SlaughterhouseActor::Slaughter, std::string("cow-9")));
  auto cuts = Must(sh.Call(&SlaughterhouseActor::CreateCutsLocal,
                           std::string("cow-9"), std::string("farm-a"), 3));
  ASSERT_EQ(cuts.size(), 3u);
  MustOk(sh.Call(&SlaughterhouseActor::TransferCutsTo, std::string("dist-2"),
                 cuts, std::string("Jutland")));
  // After transfer the slaughterhouse no longer holds the records.
  auto remaining = Must(sh.Call(&SlaughterhouseActor::LocalCutCount));
  EXPECT_EQ(remaining, 0);
  auto dist = harness_.cluster().Ref<DistributorActor>("dist-2");
  auto held = Must(dist.Call(&DistributorActor::LocalCutCount));
  EXPECT_EQ(held, 3);
  // Version increments on each copy.
  auto rec = Must(dist.Call(&DistributorActor::ReadCutLocal, cuts[0]));
  EXPECT_EQ(rec.version, 2);
  EXPECT_EQ(rec.cow_key, "cow-9");
  // Onward to the retailer, then a locally traced product.
  MustOk(dist.Call(&DistributorActor::TransferCutsToRetailer,
                   std::string("shop-2"), cuts, std::string("Copenhagen")));
  auto shop = harness_.cluster().Ref<RetailerActor>("shop-2");
  auto product = Must(shop.Call(&RetailerActor::CreateProductLocal, cuts));
  auto trace = Must(platform_.TraceProduct(product));
  ASSERT_EQ(trace.cuts.size(), 3u);
  EXPECT_EQ(trace.cuts[0].cow_key, "cow-9");
  EXPECT_EQ(trace.cuts[0].farmer_key, "farm-a");
  // The object version of the embedded record reflects every copy hop.
  auto final_rec = Must(shop.Call(&RetailerActor::ReadCutLocal, cuts[0]));
  EXPECT_EQ(final_rec.version, 3);
  ASSERT_GE(final_rec.itinerary.size(), 3u);
}

TEST_F(CattleSimTest, CrossTenantCowAccessIsRestricted) {
  MustOk(platform_.RegisterCow("cow-10", "farm-a", "Angus"));
  auto cow = harness_.cluster().Ref<CowActor>("cow-10");
  cow.Tell(&CowActor::ReportCollar,
           CollarReading{harness_.Now(), GeoPoint{55, 12}, 0.1, 38.5});
  harness_.RunFor(2 * kMicrosPerSecond);
  // Another farmer cannot read the trajectory...
  auto foreign = cow.WithPrincipal(Principal{"farm-x", "farmer"})
                     .Call(&CowActor::Trajectory, Micros{0}, Micros{1} << 60);
  // ...but a slaughterhouse role can read provenance info (requirement 3).
  auto sh_info = cow.WithPrincipal(Principal{"sh-1", "slaughterhouse"})
                     .Call(&CowActor::Info);
  harness_.RunFor(2 * kMicrosPerSecond);
  EXPECT_TRUE(foreign.Get().value().empty());
  EXPECT_EQ(sh_info.Get().value().owner_farmer, "farm-a");
}

}  // namespace
}  // namespace cattle
}  // namespace aodb
