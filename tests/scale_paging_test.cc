// Activation-paging tests for the bounded-memory working set (ROADMAP item
// 1): fault-in after a page-out preserves durable state and reminders, the
// directory keeps a paged entry (and the activation.fault.* /
// activation.paged_out series count the round-trip), paging composes with
// live migration, silo death (PurgeSilo must drop paged entries too),
// and bounded-mailbox rejection; SweepIdle's cost tracks the STALE count
// rather than the resident count (the intrusive-LRU regression); kHash
// placement never touches the per-stripe RNG (replay determinism across
// shard counts); and a 50-seed DST sweep with a deliberately tiny
// working-set cap runs violation-free.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "actor/actor_ref.h"
#include "actor/directory.h"
#include "actor/flight_recorder.h"
#include "sim/explore.h"
#include "sim/sim_harness.h"
#include "storage/mem_kv.h"
#include "storage/persistent_actor.h"
#include "journal_counter.h"

namespace aodb {
namespace {

// --- Actor under test --------------------------------------------------------

struct PgState {
  int64_t value = 0;
  int64_t reminder_fires = 0;
  void Encode(BufWriter* w) const {
    w->PutSigned(value);
    w->PutSigned(reminder_fires);
  }
  Status Decode(BufReader* r) {
    AODB_RETURN_NOT_OK(r->GetSigned(&value));
    return r->GetSigned(&reminder_fires);
  }
};

/// Durable counter persisted ON DEACTIVATION only — the policy that makes
/// paging itself carry the durability obligation: a page-out of a dirty
/// activation must flush the snapshot or the fault-in loses acked adds.
class PgCounter : public PersistentActor<PgState> {
 public:
  static constexpr char kTypeName[] = "test.PgCounter";

  PgCounter()
      : PersistentActor<PgState>(PersistenceOptions{
            PersistPolicy::kOnDeactivate, 100, 10 * kMicrosPerSecond,
            "default", RetryPolicy{}}) {}

  int64_t Add(int64_t d) {
    state().value += d;
    MarkDirty();
    return state().value;
  }
  int64_t Value() { return state().value; }
  int64_t ReminderFires() { return state().reminder_fires; }
  /// Explicit snapshot write: the turn ends when the write is ISSUED, so
  /// the ack can still be on the wire when the activation goes idle.
  Future<Status> Persist() { return WriteStateAsync(); }
  Status StartReminder(int64_t period_us) {
    return ctx().RegisterReminder("tick", period_us);
  }

  void ReceiveReminder(const std::string&) override {
    ++state().reminder_fires;
    MarkDirty();
  }
};

void RegisterWireMethods() {
  static const Status st = [] {
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        PgCounter::kTypeName, &PgCounter::Add, "PgCounter.Add"));
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        PgCounter::kTypeName, &PgCounter::Value, "PgCounter.Value",
        /*idempotent=*/true));
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        PgCounter::kTypeName, &PgCounter::ReminderFires,
        "PgCounter.ReminderFires", /*idempotent=*/true));
    AODB_RETURN_NOT_OK(MethodRegistry::Global().Register(
        PgCounter::kTypeName, &PgCounter::StartReminder,
        "PgCounter.StartReminder"));
    return MethodRegistry::Global().Register(
        PgCounter::kTypeName, &PgCounter::Persist, "PgCounter.Persist",
        /*idempotent=*/true);
  }();
  ASSERT_TRUE(st.ok()) << st.ToString();
}

/// Storage decorator that can hold the apply AND the ack of writes to one
/// grain key — modeling a write still on the wire (provider latency, retry
/// backoff) after the issuing turn has long finished.
class HoldWriteStorage final : public StateStorage {
 public:
  explicit HoldWriteStorage(std::shared_ptr<StateStorage> inner)
      : inner_(std::move(inner)) {}

  Future<Status> Write(const std::string& grain_key, std::string bytes,
                       Executor* exec) override {
    if (grain_key == held_key_) {
      held_.push_back(Held{grain_key, std::move(bytes), exec, {}});
      return held_.back().done.GetFuture();
    }
    return inner_->Write(grain_key, std::move(bytes), exec);
  }
  Future<std::string> Read(const std::string& grain_key,
                           Executor* exec) override {
    return inner_->Read(grain_key, exec);
  }
  Future<Status> Clear(const std::string& grain_key,
                       Executor* exec) override {
    return inner_->Clear(grain_key, exec);
  }

  void HoldKey(const std::string& grain_key) { held_key_ = grain_key; }

  /// Applies every held write against the inner provider and completes its
  /// future; returns how many were held.
  size_t ReleaseAll() {
    held_key_.clear();
    size_t n = held_.size();
    for (Held& h : held_) {
      Promise<Status> done = h.done;
      inner_->Write(h.key, std::move(h.bytes), h.exec)
          .OnReady([done](Result<Status>&& r) mutable {
            done.SetValue(r.ok() ? r.value() : r.status());
          });
    }
    held_.clear();
    return n;
  }

  size_t held_count() const { return held_.size(); }

 private:
  struct Held {
    std::string key;
    std::string bytes;
    Executor* exec;
    Promise<Status> done;
  };
  std::shared_ptr<StateStorage> inner_;
  std::string held_key_;
  std::vector<Held> held_;
};

RuntimeOptions BaseOptions(int num_silos, int max_resident) {
  RuntimeOptions o;
  o.num_silos = num_silos;
  o.workers_per_silo = 1;  // Serialize turns: deterministic interleavings.
  o.seed = 42;
  o.max_resident_activations = max_resident;
  return o;
}

struct TestCluster {
  explicit TestCluster(const RuntimeOptions& options)
      : harness(options), cluster(harness.cluster()) {
    RegisterWireMethods();
    RegisterJournalCounterWire();
    cluster.RegisterActorType<PgCounter>();
    cluster.RegisterActorType<JournalCounter>();
    hold = std::make_shared<HoldWriteStorage>(
        std::make_shared<KvStateStorage>(&kv));
    cluster.RegisterStateStorage("default", hold);
  }

  int64_t Metric(const std::string& name) {
    MetricsSnapshot snap = cluster.SnapshotMetrics();
    auto cit = snap.counters.find(name);
    if (cit != snap.counters.end()) return cit->second;
    auto git = snap.gauges.find(name);
    return git != snap.gauges.end() ? git->second : 0;
  }

  /// Adds 1 to `key` and waits for the ack.
  void Add1(const std::string& key) {
    auto f = cluster.Ref<PgCounter>(key).Call(&PgCounter::Add, int64_t{1});
    ASSERT_TRUE(RunUntilReady(harness, f, 10 * kMicrosPerSecond));
    ASSERT_TRUE(f.Get().ok()) << f.Get().status().ToString();
  }

  /// Creates `n` one-shot filler activations so the working-set cap evicts
  /// the least-recently-active resident actors.
  void Fill(const std::string& prefix, int n) {
    for (int i = 0; i < n; ++i) {
      Add1(prefix + std::to_string(i));
    }
    harness.RunFor(kMicrosPerSecond);  // Let the eviction passes land.
  }

  std::optional<Directory::Entry> Entry(const std::string& key) {
    return cluster.directory().LookupEntry(
        ActorId{PgCounter::kTypeName, key});
  }

  MemKvStore kv;
  std::shared_ptr<HoldWriteStorage> hold;
  SimHarness harness;
  Cluster& cluster;
};

// --- Fault-in preserves state and reminders ----------------------------------

/// An actor paged out by the working-set cap keeps its durable state AND its
/// registered reminder: the next reminder fire faults it back in and applies
/// against the flushed snapshot, not a fresh grain.
TEST(ScalePaging, FaultInPreservesStateAndReminders) {
  TestCluster tc(BaseOptions(1, /*max_resident=*/2));

  tc.Add1("keep");
  tc.Add1("keep");
  auto rem = tc.cluster.Ref<PgCounter>("keep").Call(
      &PgCounter::StartReminder, int64_t{2 * kMicrosPerSecond});
  ASSERT_TRUE(RunUntilReady(tc.harness, rem, 10 * kMicrosPerSecond));
  ASSERT_TRUE(rem.Get().ok());
  ASSERT_TRUE(rem.Get().value().ok());

  // Push "keep" out through the cap (it becomes the LRU-oldest entry).
  tc.Fill("f", 6);
  auto entry = tc.Entry("keep");
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->paged);
  EXPECT_EQ(entry->silo, 0);

  // The reminder service faults it back in.
  tc.harness.RunFor(5 * kMicrosPerSecond);
  auto fires = tc.cluster.Ref<PgCounter>("keep").Call(
      &PgCounter::ReminderFires);
  ASSERT_TRUE(RunUntilReady(tc.harness, fires, 10 * kMicrosPerSecond));
  ASSERT_TRUE(fires.Get().ok());
  EXPECT_GE(fires.Get().value(), 1);

  auto v = tc.cluster.Ref<PgCounter>("keep").Call(&PgCounter::Value);
  ASSERT_TRUE(RunUntilReady(tc.harness, v, 10 * kMicrosPerSecond));
  ASSERT_TRUE(v.Get().ok());
  EXPECT_EQ(v.Get().value(), 2);
}

// --- Directory entry, metrics, and flight events -----------------------------

/// A page-out KEEPS the directory registration (marked paged, same silo), a
/// later send faults the actor in on that silo, and the whole round-trip is
/// visible: activation.paged_out / activation.fault.count counters, the
/// fault queue-wait histogram, and paged_out/fault_in flight events.
TEST(ScalePaging, PageOutKeepsDirectoryEntryAndCountsFaults) {
  TestCluster tc(BaseOptions(1, /*max_resident=*/1));

  tc.Add1("a");
  tc.Fill("b", 3);

  auto entry = tc.Entry("a");
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->paged);
  EXPECT_EQ(entry->silo, 0);
  EXPECT_GE(tc.Metric("activation.paged_out"), 1);
  int64_t faults_before = tc.Metric("activation.fault.count");

  auto v = tc.cluster.Ref<PgCounter>("a").Call(&PgCounter::Value);
  ASSERT_TRUE(RunUntilReady(tc.harness, v, 10 * kMicrosPerSecond));
  ASSERT_TRUE(v.Get().ok());
  EXPECT_EQ(v.Get().value(), 1);  // Fault-in loaded the flushed snapshot.
  EXPECT_GE(tc.Metric("activation.fault.count"), faults_before + 1);

  auto fresh = tc.Entry("a");
  ASSERT_TRUE(fresh.has_value());
  EXPECT_FALSE(fresh->paged);  // Fault-in cleared the flag.

  MetricsSnapshot snap = tc.cluster.SnapshotMetrics();
  auto hit = snap.histograms.find("activation.fault.queue_wait_us");
  ASSERT_TRUE(hit != snap.histograms.end());
  EXPECT_GE(hit->second.count(), 1);

  bool saw_paged_out = false;
  bool saw_fault_in = false;
  for (const FlightRecord& e : tc.cluster.flight_recorder().Collect()) {
    if (std::string(e.actor) != "test.PgCounter/a") continue;
    if (e.type == FlightEventType::kPagedOut) saw_paged_out = true;
    if (e.type == FlightEventType::kFaultIn) saw_fault_in = true;
  }
  EXPECT_TRUE(saw_paged_out);
  EXPECT_TRUE(saw_fault_in);
}

// --- Paging vs migration -----------------------------------------------------

/// Paging and live migration share the kIdle -> kDeactivating claim, so they
/// can interleave but never double-claim: migrating a PAGED actor fails
/// cleanly (there is no activation to move), and after rounds of adds,
/// migrations, and eviction pressure no acked add is lost or double-applied.
TEST(ScalePaging, PagingComposesWithMigration) {
  TestCluster tc(BaseOptions(2, /*max_resident=*/1));

  int64_t adds = 0;
  for (int round = 0; round < 8; ++round) {
    tc.Add1("m");
    ++adds;
    // Racing initiator: shove it at the other silo. Any outcome is legal
    // (moved, refused because paged/deactivating); consistency is checked
    // at the end.
    tc.cluster.MigrateActivation(ActorId{PgCounter::kTypeName, "m"},
                                 round % 2);
    tc.Fill("r" + std::to_string(round) + "-", 3);
  }

  // Force the paged state explicitly, then show migration refuses it.
  tc.Fill("z", 4);
  auto entry = tc.Entry("m");
  ASSERT_TRUE(entry.has_value());
  if (entry->paged) {
    SiloId other = entry->silo == 0 ? 1 : 0;
    Status st = tc.cluster.MigrateActivation(
        ActorId{PgCounter::kTypeName, "m"}, other);
    EXPECT_FALSE(st.ok());
  }

  auto v = tc.cluster.Ref<PgCounter>("m").Call(&PgCounter::Value);
  ASSERT_TRUE(RunUntilReady(tc.harness, v, 10 * kMicrosPerSecond));
  ASSERT_TRUE(v.Get().ok());
  EXPECT_EQ(v.Get().value(), adds);
}

// --- Paging vs PurgeSilo -----------------------------------------------------

/// PurgeSilo must drop PAGED entries along with live ones: when the hosting
/// silo dies, the paged registration disappears, and the next call
/// re-places the actor on a survivor, loading the snapshot the page-out
/// flushed before the crash.
TEST(ScalePaging, PagedEntryPurgedWithDeadSilo) {
  TestCluster tc(BaseOptions(2, /*max_resident=*/1));

  tc.Add1("p");
  tc.Add1("p");
  tc.Fill("q", 6);  // Page "p" out (snapshot flushed by the page-out).

  auto entry = tc.Entry("p");
  ASSERT_TRUE(entry.has_value());
  ASSERT_TRUE(entry->paged);
  SiloId host = entry->silo;
  SiloId survivor = host == 0 ? 1 : 0;

  tc.cluster.KillSilo(host);
  tc.harness.RunFor(2 * kMicrosPerSecond);
  auto purged = tc.Entry("p");
  EXPECT_FALSE(purged.has_value());  // PurgeSilo dropped the paged entry.

  auto v = tc.cluster.Ref<PgCounter>("p").Call(&PgCounter::Value);
  ASSERT_TRUE(RunUntilReady(tc.harness, v, 20 * kMicrosPerSecond));
  ASSERT_TRUE(v.Get().ok()) << v.Get().status().ToString();
  EXPECT_EQ(v.Get().value(), 2);
  auto placed = tc.Entry("p");
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(placed->silo, survivor);
}

// --- Overloaded vs paging ----------------------------------------------------

/// A bounded mailbox and a working-set cap compose: the eviction pass never
/// claims an actor with queued mail (the claim requires kIdle AND an empty
/// mailbox), so backpressure rejections and paging account for every send —
/// accepted adds all land, rejected ones are cleanly Overloaded.
TEST(ScalePaging, OverloadedComposesWithPaging) {
  RuntimeOptions options = BaseOptions(1, /*max_resident=*/1);
  options.overload.max_mailbox_depth = 2;
  TestCluster tc(options);

  CallOptions slow;
  slow.cost_us = 100 * kMicrosPerMilli;
  std::vector<Future<int64_t>> acks;
  for (int i = 0; i < 6; ++i) {
    acks.push_back(tc.cluster.Ref<PgCounter>("o").CallWith(
        slow, &PgCounter::Add, int64_t{1}));
  }
  // Eviction pressure while "o" still has queued mail.
  tc.Fill("e", 3);
  tc.harness.RunFor(2 * kMicrosPerSecond);

  int64_t acked = 0;
  int64_t overloaded = 0;
  for (auto& f : acks) {
    ASSERT_TRUE(f.Ready());
    if (f.Get().ok()) {
      ++acked;
    } else {
      EXPECT_TRUE(f.Get().status().IsOverloaded())
          << f.Get().status().ToString();
      ++overloaded;
    }
  }
  EXPECT_EQ(acked + overloaded, 6);
  EXPECT_GE(acked, 1);

  auto v = tc.cluster.Ref<PgCounter>("o").Call(&PgCounter::Value);
  ASSERT_TRUE(RunUntilReady(tc.harness, v, 10 * kMicrosPerSecond));
  ASSERT_TRUE(v.Get().ok());
  EXPECT_EQ(v.Get().value(), acked);
}

// --- Sweep cost regression ---------------------------------------------------

/// SweepIdle walks the intrusive LRU oldest-first and stops at the first
/// FRESH entry, so its cost is O(stale + 1) per sweep — independent of the
/// resident count. With ~1200 fresh residents, repeated sweeps examine a
/// handful of entries total; once everything goes stale, examined grows by
/// about one per eviction.
TEST(ScalePaging, SweepCostIndependentOfResidentCount) {
  RuntimeOptions options = BaseOptions(1, /*max_resident=*/0);
  options.lifecycle.enable_idle_deactivation = true;
  options.lifecycle.idle_timeout_us = 60 * kMicrosPerSecond;
  options.lifecycle.scan_interval_us = kMicrosPerSecond;
  TestCluster tc(options);
  tc.cluster.StartIdleScanner();

  constexpr int kResident = 1200;
  for (int i = 0; i < kResident; ++i) {
    tc.cluster.Ref<PgCounter>("s" + std::to_string(i))
        .Tell(&PgCounter::Add, int64_t{1});
  }
  tc.harness.RunFor(10 * kMicrosPerSecond);  // Drain + ~10 fresh sweeps.

  SiloStats fresh = tc.cluster.silo(0)->Stats();
  ASSERT_GE(fresh.activations_created, kResident);
  // The regression this guards: the old sweep scanned the whole catalog
  // every pass (~10 sweeps x 1200 residents > 10,000 examined).
  EXPECT_LE(fresh.sweep_examined, 100);

  // Let everything go stale; the sweeps now pay one examine per eviction.
  tc.harness.RunFor(70 * kMicrosPerSecond);
  SiloStats stale = tc.cluster.silo(0)->Stats();
  EXPECT_GE(stale.activations_removed, kResident);
  EXPECT_LE(stale.sweep_examined,
            fresh.sweep_examined + stale.activations_removed + 100);
}

// --- kHash placement determinism ---------------------------------------------

/// kHash placement is a pure function of (actor id, live membership): it
/// must not consume per-stripe RNG draws, so interleaving it with kRandom
/// placements — or changing the seed or the stripe count — never changes a
/// hash-placed actor's home. This is what keeps DST replays bit-identical
/// when paging churns placement order.
TEST(ScalePaging, HashPlacementIgnoresRngAndShardCount) {
  constexpr int kSilos = 4;
  constexpr int kIds = 64;

  auto run = [&](uint64_t seed, int shards,
                 int random_interleave) -> std::vector<SiloId> {
    Directory dir(kSilos, Placement::kRandom, seed, shards);
    dir.SetTypePlacement("h.Type", Placement::kHash);
    std::vector<SiloId> homes;
    for (int i = 0; i < kIds; ++i) {
      // Burn a varying number of RNG draws on random placements first.
      for (int r = 0; r < random_interleave * (i % 3 + 1); ++r) {
        dir.LookupOrPlace(
            ActorId{"r.Type", "r" + std::to_string(i) + "-" +
                                  std::to_string(r)},
            kClientSiloId);
      }
      homes.push_back(dir.LookupOrPlace(
          ActorId{"h.Type", "h" + std::to_string(i)}, kClientSiloId));
    }
    return homes;
  };

  std::vector<SiloId> baseline = run(/*seed=*/1, /*shards=*/1,
                                     /*random_interleave=*/0);
  for (int i = 0; i < kIds; ++i) {
    ActorId id{"h.Type", "h" + std::to_string(i)};
    EXPECT_EQ(baseline[i],
              static_cast<SiloId>(ActorIdHash()(id) % kSilos));
  }
  EXPECT_EQ(baseline, run(/*seed=*/1, /*shards=*/1, /*random_interleave=*/0));
  EXPECT_EQ(baseline, run(/*seed=*/99, /*shards=*/1, /*random_interleave=*/2));
  EXPECT_EQ(baseline, run(/*seed=*/1, /*shards=*/16, /*random_interleave=*/0));
  EXPECT_EQ(baseline, run(/*seed=*/7, /*shards=*/16, /*random_interleave=*/3));

  // Dead home silos probe deterministically to the next live one.
  Directory dir(kSilos, Placement::kRandom, /*seed=*/1, /*shards=*/8);
  dir.SetTypePlacement("h.Type", Placement::kHash);
  dir.SetSiloLive(2, false);
  for (int i = 0; i < kIds; ++i) {
    ActorId id{"h.Type", "d" + std::to_string(i)};
    SiloId home = static_cast<SiloId>(ActorIdHash()(id) % kSilos);
    SiloId expect = home == 2 ? 3 : home;
    EXPECT_EQ(dir.LookupOrPlace(id, kClientSiloId), expect);
  }
}

// --- Deactivation drains in-flight writes ------------------------------------

/// An idle activation with a state write still on the wire must NOT finish
/// paging out until the write lands. Deactivating early frees the successor
/// activation to load + write first; the predecessor's late write then rolls
/// the grain back and an acked update is silently lost (exactly the DST
/// conservation violation the low-cap sweep caught at seed 29 — writes are
/// only serialized within one activation's PersistCore, so ordering across
/// the activation boundary has to come from the deactivation drain).
TEST(ScalePaging, DeactivationDrainsInFlightWrites) {
  TestCluster tc(BaseOptions(1, /*max_resident=*/1));
  const std::string kKey = std::string(PgCounter::kTypeName) + "/w";

  tc.Add1("w");
  // Flush the dirty mark first, so the held write below is issued against
  // CLEAN state — exercising the pure drain path, not the dirty-flush path.
  auto flush = tc.cluster.Ref<PgCounter>("w").Call(&PgCounter::Persist);
  ASSERT_TRUE(RunUntilReady(tc.harness, flush, 10 * kMicrosPerSecond));
  ASSERT_TRUE(flush.Get().ok()) << flush.Get().status().ToString();

  tc.hold->HoldKey(kKey);
  auto pending = tc.cluster.Ref<PgCounter>("w").Call(&PgCounter::Persist);
  tc.harness.RunFor(100 * kMicrosPerMilli);
  ASSERT_EQ(tc.hold->held_count(), 1u);

  // Cap pressure (cap=1) claims "w" for page-out; the deactivation must
  // stall on the in-flight write, keeping the entry un-paged.
  tc.Fill("f", 3);
  auto e = tc.Entry("w");
  ASSERT_TRUE(e.has_value());
  EXPECT_FALSE(e->paged) << "paged out with a write still on the wire";
  EXPECT_FALSE(pending.Ready());

  ASSERT_EQ(tc.hold->ReleaseAll(), 1u);
  tc.harness.RunFor(kMicrosPerSecond);
  EXPECT_TRUE(pending.Ready());
  e = tc.Entry("w");
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->paged) << "page-out did not resume after the drain";

  // Fault back in: the drained write's state survives.
  auto v = tc.cluster.Ref<PgCounter>("w").Call(&PgCounter::Value);
  ASSERT_TRUE(RunUntilReady(tc.harness, v, 10 * kMicrosPerSecond));
  ASSERT_EQ(v.Get().value(), 1);

  // A journal record on the wire holds page-out the same way: the sealed
  // flush queues behind it, and the successor sees the record's add.
  auto journal = tc.cluster.Ref<JournalCounter>("jw");
  auto snapshot = journal.Call(&JournalCounter::AddDurable, int64_t{1});
  ASSERT_TRUE(RunUntilReady(tc.harness, snapshot, 10 * kMicrosPerSecond));
  ASSERT_TRUE(snapshot.Get().ok() && snapshot.Get().value().ok());
  tc.hold->HoldKey(JournalRecordKey("jw", 0));
  auto record = journal.Call(&JournalCounter::AddDurable, int64_t{2});
  tc.harness.RunFor(100 * kMicrosPerMilli);
  ASSERT_EQ(tc.hold->held_count(), 1u);

  auto journal_entry = [&tc] {
    return tc.cluster.directory().LookupEntry(
        ActorId{JournalCounter::kTypeName, "jw"});
  };
  tc.Fill("g", 3);
  auto je = journal_entry();
  ASSERT_TRUE(je.has_value());
  EXPECT_FALSE(je->paged) << "paged out with a journal record on the wire";
  EXPECT_FALSE(record.Ready());

  ASSERT_EQ(tc.hold->ReleaseAll(), 1u);
  tc.harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(record.Ready());
  EXPECT_TRUE(record.Get().ok() && record.Get().value().ok());
  je = journal_entry();
  ASSERT_TRUE(je.has_value());
  EXPECT_TRUE(je->paged) << "page-out did not resume after the drain";

  auto jv = journal.Call(&JournalCounter::Value);
  ASSERT_TRUE(RunUntilReady(tc.harness, jv, 10 * kMicrosPerSecond));
  EXPECT_EQ(jv.Get().value(), 3);
}

// --- DST sweep with paging ---------------------------------------------------

/// 50 seeds of full fault exploration with a working-set cap of 2 against 8
/// oracle actors: every run pages constantly, so evictions, paged directory
/// entries, and fault-ins race crashes, partitions, and storage faults.
/// Every invariant (conservation, exactly-once, catalog/directory
/// coherence) must hold on every seed.
TEST(ScalePaging, DstPagingSweepFiftySeedsClean) {
  dst::ExploreConfig config;
  config.max_resident_activations = 2;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    FaultPlan plan = dst::GeneratePlan(seed, config);
    dst::RunResult result = dst::RunScenario(plan, config);
    EXPECT_GT(result.checks_run, 0) << "seed " << seed;
    for (const std::string& v : result.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << v;
    }
  }
}

}  // namespace
}  // namespace aodb
