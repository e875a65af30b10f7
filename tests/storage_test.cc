// Storage-layer tests: in-memory KV, the persistent log-structured store
// (durability, crash recovery, torn-write tolerance, corruption detection,
// compaction), the simulated cloud store (latency, provisioned-capacity
// throttling), grain-state persistence policies, and the state journal.

#include <algorithm>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "actor/actor_ref.h"
#include "sim/sim_harness.h"
#include "storage/cloud_kv.h"
#include "storage/faulty_storage.h"
#include "storage/file_kv.h"
#include "storage/mem_kv.h"
#include "storage/persistent_actor.h"
#include "journal_counter.h"
#include "wire_methods.h"

namespace aodb {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("aodb_test_" + std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

// --- MemKvStore ---------------------------------------------------------------

TEST(MemKvTest, PutGetDeleteList) {
  MemKvStore kv;
  ASSERT_TRUE(kv.Put("a/1", "one").ok());
  ASSERT_TRUE(kv.Put("a/2", "two").ok());
  ASSERT_TRUE(kv.Put("b/1", "three").ok());
  EXPECT_EQ(kv.Get("a/1").value(), "one");
  EXPECT_TRUE(kv.Get("missing").status().IsNotFound());
  auto listed = kv.List("a/");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed.value().size(), 2u);
  EXPECT_EQ(listed.value()[0].first, "a/1");
  ASSERT_TRUE(kv.Delete("a/1").ok());
  EXPECT_TRUE(kv.Get("a/1").status().IsNotFound());
  EXPECT_EQ(kv.Count().value(), 2);
}

TEST(MemKvTest, BatchApplies) {
  MemKvStore kv;
  WriteBatch batch;
  batch.Put("x", "1");
  batch.Put("y", "2");
  batch.Delete("x");
  ASSERT_TRUE(kv.Apply(batch).ok());
  EXPECT_TRUE(kv.Get("x").status().IsNotFound());
  EXPECT_EQ(kv.Get("y").value(), "2");
}

// --- FileKvStore ----------------------------------------------------------------

TEST(FileKvTest, BasicOperations) {
  TempDir dir;
  auto opened = FileKvStore::Open(dir.str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& kv = *opened.value();
  ASSERT_TRUE(kv.Put("k1", "v1").ok());
  ASSERT_TRUE(kv.Put("k2", "v2").ok());
  EXPECT_EQ(kv.Get("k1").value(), "v1");
  ASSERT_TRUE(kv.Delete("k1").ok());
  EXPECT_TRUE(kv.Get("k1").status().IsNotFound());
  EXPECT_EQ(kv.Count().value(), 1);
}

TEST(FileKvTest, StateSurvivesReopen) {
  TempDir dir;
  {
    auto kv = std::move(FileKvStore::Open(dir.str()).value());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          kv->Put("key" + std::to_string(i), "val" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(kv->Delete("key50").ok());
    kv->Close();
  }
  auto reopened = FileKvStore::Open(dir.str());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->Count().value(), 99);
  EXPECT_EQ(reopened.value()->Get("key7").value(), "val7");
  EXPECT_TRUE(reopened.value()->Get("key50").status().IsNotFound());
}

TEST(FileKvTest, TornTailIsDroppedOnRecovery) {
  TempDir dir;
  {
    auto kv = std::move(FileKvStore::Open(dir.str()).value());
    ASSERT_TRUE(kv->Put("good", "value").ok());
    kv->Close();
  }
  // Append garbage simulating a torn (partial) final record.
  std::string seg;
  for (const auto& e : fs::directory_iterator(dir.str())) {
    seg = e.path().string();
  }
  {
    std::ofstream out(seg, std::ios::binary | std::ios::app);
    const char torn[] = {0x12, 0x34, 0x56};
    out.write(torn, sizeof(torn));
  }
  auto reopened = FileKvStore::Open(dir.str());
  ASSERT_TRUE(reopened.ok()) << "torn tail must not fail recovery";
  EXPECT_EQ(reopened.value()->Get("good").value(), "value");
}

TEST(FileKvTest, CorruptedRecordStopsReplayAtCorruption) {
  TempDir dir;
  {
    auto kv = std::move(FileKvStore::Open(dir.str()).value());
    ASSERT_TRUE(kv->Put("first", "1").ok());
    ASSERT_TRUE(kv->Put("second", "2").ok());
    kv->Close();
  }
  std::string seg;
  for (const auto& e : fs::directory_iterator(dir.str())) {
    seg = e.path().string();
  }
  // Flip a byte in the middle of the file (inside the second record's
  // payload region) — the CRC must catch it.
  auto size = fs::file_size(seg);
  {
    std::fstream f(seg, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(size - 3));
    char c = 'X';
    f.write(&c, 1);
  }
  auto reopened = FileKvStore::Open(dir.str());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->Get("first").value(), "1");
  EXPECT_TRUE(reopened.value()->Get("second").status().IsNotFound())
      << "corrupted record must not replay";
}

TEST(FileKvTest, TruncatedMidRecordTailIsDroppedOnRecovery) {
  TempDir dir;
  {
    auto kv = std::move(FileKvStore::Open(dir.str()).value());
    ASSERT_TRUE(kv->Put("first", "1").ok());
    ASSERT_TRUE(kv->Put("second", std::string(64, 's')).ok());
    kv->Close();
  }
  std::string seg;
  for (const auto& e : fs::directory_iterator(dir.str())) {
    seg = e.path().string();
  }
  // Crash mid-append: the file ends partway through the second record's
  // payload (a short write, not appended garbage). Recovery must keep the
  // first record, drop the torn tail, and leave a usable store.
  auto size = fs::file_size(seg);
  fs::resize_file(seg, size - 17);
  {
    auto reopened = FileKvStore::Open(dir.str());
    ASSERT_TRUE(reopened.ok()) << "short write must not fail recovery";
    auto& kv = *reopened.value();
    EXPECT_EQ(kv.Get("first").value(), "1");
    EXPECT_TRUE(kv.Get("second").status().IsNotFound())
        << "the torn record was never durable";
    ASSERT_TRUE(kv.Put("third", "3").ok()) << "store must accept new writes";
    kv.Close();
  }
  auto again = FileKvStore::Open(dir.str());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->Get("first").value(), "1");
  EXPECT_EQ(again.value()->Get("third").value(), "3")
      << "writes after torn-tail recovery must be durable";
}

TEST(FileKvTest, CompactionShrinksLogAndPreservesData) {
  TempDir dir;
  FileKvOptions opts;
  opts.min_compaction_bytes = 16 << 10;
  auto kv = std::move(FileKvStore::Open(dir.str(), opts).value());
  // Overwrite a small key set many times: mostly garbage.
  std::string value(256, 'x');
  for (int round = 0; round < 100; ++round) {
    for (int k = 0; k < 10; ++k) {
      ASSERT_TRUE(kv->Put("hot" + std::to_string(k), value).ok());
    }
  }
  EXPECT_GT(kv->Compactions(), 0) << "automatic compaction should trigger";
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(kv->Get("hot" + std::to_string(k)).value(), value);
  }
  // After an explicit compaction the directory holds one small segment.
  ASSERT_TRUE(kv->Compact().ok());
  int64_t total = 0;
  int files = 0;
  for (const auto& e : fs::directory_iterator(dir.str())) {
    total += static_cast<int64_t>(fs::file_size(e.path()));
    ++files;
  }
  EXPECT_EQ(files, 1);
  EXPECT_LT(total, 8 << 10);
}

TEST(FileKvTest, ReopenAfterCompactionKeepsLatestValues) {
  TempDir dir;
  FileKvOptions opts;
  opts.min_compaction_bytes = 4 << 10;
  {
    auto kv = std::move(FileKvStore::Open(dir.str(), opts).value());
    std::string value(128, 'y');
    for (int round = 0; round < 50; ++round) {
      ASSERT_TRUE(kv->Put("k", value + std::to_string(round)).ok());
    }
    kv->Close();
  }
  auto reopened = FileKvStore::Open(dir.str(), opts);
  ASSERT_TRUE(reopened.ok());
  std::string expect(128, 'y');
  EXPECT_EQ(reopened.value()->Get("k").value(), expect + "49");
}

// --- TokenBucket / CloudKvSim ---------------------------------------------------

TEST(TokenBucketTest, RefillsAtConfiguredRate) {
  TokenBucket bucket(100.0, 100.0);  // 100 units/s, 100 burst.
  // Burst absorbs the first 100 units.
  EXPECT_EQ(bucket.Reserve(0, 100.0), 0);
  // The next 50 units must wait 0.5s of refill.
  Micros wait = bucket.Reserve(0, 50.0);
  EXPECT_NEAR(static_cast<double>(wait), 500000.0, 1000.0);
  // After a refund the deficit shrinks.
  bucket.Refund(50.0);
  EXPECT_EQ(bucket.Reserve(kMicrosPerSecond, 50.0), 0);
}

TEST(CloudKvTest, ReadsAndWritesCompleteWithLatency) {
  SimHarness harness(RuntimeOptions{});
  MemKvStore backing;
  CloudKvOptions opts;
  CloudKvStateStorage cloud(&backing, opts);
  Executor* exec = harness.client_executor();
  auto w = cloud.Write("grain1", "state-bytes", exec);
  harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(w.Ready());
  ASSERT_TRUE(w.Get().value().ok());
  EXPECT_GT(harness.Now(), 0) << "cloud write must take simulated time";
  auto r = cloud.Read("grain1", exec);
  harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(r.Ready());
  EXPECT_EQ(r.Get().value(), "state-bytes");
  auto missing = cloud.Read("nope", exec);
  harness.RunFor(kMicrosPerSecond);
  EXPECT_TRUE(missing.Get().status().IsNotFound());
}

TEST(CloudKvTest, SustainedOverloadThrottles) {
  SimHarness harness(RuntimeOptions{});
  MemKvStore backing;
  CloudKvOptions opts;
  opts.write_units_per_sec = 10;  // Tiny provisioned capacity.
  opts.max_throttle_wait_us = 100 * kMicrosPerMilli;
  CloudKvStateStorage cloud(&backing, opts);
  Executor* exec = harness.client_executor();
  int rejected = 0;
  for (int i = 0; i < 100; ++i) {
    auto w = cloud.Write("g" + std::to_string(i), "x", exec);
    if (w.Ready() && !w.Get().ok()) ++rejected;
  }
  harness.RunFor(10 * kMicrosPerSecond);
  EXPECT_GT(rejected, 50) << "sustained 10x overload must throttle";
  EXPECT_GT(cloud.throttled(), 0);
}

TEST(CloudKvTest, RejectedWritesRefundCapacitySoItRecovers) {
  SimHarness harness(RuntimeOptions{});
  MemKvStore backing;
  CloudKvOptions opts;
  opts.write_units_per_sec = 10;
  opts.max_throttle_wait_us = 100 * kMicrosPerMilli;
  CloudKvStateStorage cloud(&backing, opts);
  Executor* exec = harness.client_executor();

  // Phase 1: sustained 10x overload. Rejected writes must Refund their
  // reservation — otherwise the bucket's deficit would grow by the full
  // offered load and never drain.
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 100; ++i) {
    auto w = cloud.Write("hot" + std::to_string(i), "x", exec);
    if (w.Ready() && !w.Get().ok()) {
      ++rejected;
    } else {
      ++accepted;
    }
  }
  harness.RunFor(10 * kMicrosPerSecond);
  EXPECT_GT(rejected, 50);
  EXPECT_EQ(cloud.throttled(), rejected);

  // Phase 2: after a quiet second the bucket must have recovered enough
  // for a fresh write to be admitted immediately. Without the refunds the
  // accumulated deficit (~90 units at 10 units/s) would throttle for
  // several more seconds.
  harness.RunFor(kMicrosPerSecond);
  int64_t throttled_before = cloud.throttled();
  auto recovered = cloud.Write("after-storm", "x", exec);
  harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(recovered.Ready());
  EXPECT_TRUE(recovered.Get().value().ok())
      << "capacity must recover once rejected reservations are refunded";
  EXPECT_EQ(cloud.throttled(), throttled_before);
  EXPECT_EQ(backing.Get("grain/after-storm").value(), "x");
}

// --- Persistence policies --------------------------------------------------------

struct CounterState {
  int64_t value = 0;
  void Encode(BufWriter* w) const { w->PutSigned(value); }
  Status Decode(BufReader* r) { return r->GetSigned(&value); }
};

template <PersistPolicy kPolicy>
class PersistingCounter : public PersistentActor<CounterState> {
 public:
  PersistingCounter()
      : PersistentActor<CounterState>(PersistenceOptions{
            kPolicy, /*window_updates=*/5,
            /*window_interval_us=*/60 * kMicrosPerSecond, "default"}) {}
  int64_t Add(int64_t d) {
    state().value += d;
    MarkDirty();
    return state().value;
  }
  int64_t Value() { return state().value; }
};

class EveryUpdateCounter
    : public PersistingCounter<PersistPolicy::kOnEveryUpdate> {
 public:
  static constexpr char kTypeName[] = "test.EveryUpdate";
};
class WindowedCounter : public PersistingCounter<PersistPolicy::kWindowed> {
 public:
  static constexpr char kTypeName[] = "test.Windowed";
};
class DeactivateCounter
    : public PersistingCounter<PersistPolicy::kOnDeactivate> {
 public:
  static constexpr char kTypeName[] = "test.OnDeactivate";
};

/// What a second cluster over the same store loaded for one counter.
struct Reloaded {
  int64_t value = -1;
  int64_t snapshot_reads = 0;
  int64_t record_reads = 0;
};

/// Loads JournalCounter `key` in a fresh cluster over `storage`, as after
/// a crash: nothing was flushed.
Reloaded ReloadJournalCounter(StateStorage* storage, const std::string& key) {
  SimHarness fresh(RuntimeOptions{});
  fresh.cluster().RegisterActorType<JournalCounter>();
  auto probe = std::make_shared<JournalProbeStorage>(storage);
  fresh.cluster().RegisterStateStorage("default", probe);
  auto v =
      fresh.cluster().Ref<JournalCounter>(key).Call(&JournalCounter::Value);
  fresh.RunFor(kMicrosPerSecond);
  Reloaded out;
  EXPECT_TRUE(v.Ready());
  if (v.Ready() && v.Get().ok()) out.value = v.Get().value();
  out.snapshot_reads = probe->snapshot_reads;
  out.record_reads = probe->record_reads;
  return out;
}

class PersistencePolicyTest : public ::testing::Test {
 protected:
  PersistencePolicyTest() : harness_(RuntimeOptions{}) {
    RegisterWire<EveryUpdateCounter>(&EveryUpdateCounter::Add, "Add",
                                     &EveryUpdateCounter::Value, "Value");
    RegisterWire<WindowedCounter>(&WindowedCounter::Add, "Add",
                                  &WindowedCounter::Value, "Value");
    RegisterWire<DeactivateCounter>(&DeactivateCounter::Add, "Add",
                                    &DeactivateCounter::Value, "Value");
    RegisterJournalCounterWire();
    harness_.cluster().RegisterActorType<EveryUpdateCounter>();
    harness_.cluster().RegisterActorType<WindowedCounter>();
    harness_.cluster().RegisterActorType<DeactivateCounter>();
    harness_.cluster().RegisterActorType<JournalCounter>();
    backing_ = std::make_shared<MemKvStore>();
    storage_ = std::make_shared<KvStateStorage>(backing_.get());
    probe_ = std::make_shared<JournalProbeStorage>(storage_.get());
    harness_.cluster().RegisterStateStorage("default", probe_);
  }

  int64_t StoredKeys() { return backing_->Count().value(); }

  /// One AddDurable on counter `key`, run to completion; returns its ack.
  Status AddDurable(const std::string& key, int64_t d) {
    auto f = harness_.cluster().Ref<JournalCounter>(key).Call(
        &JournalCounter::AddDurable, d);
    harness_.RunFor(10 * kMicrosPerMilli);
    if (!f.Ready()) return Status::Timeout("AddDurable did not complete");
    return f.Get().ok() ? f.Get().value() : f.Get().status();
  }

  SimHarness harness_;
  std::shared_ptr<MemKvStore> backing_;
  std::shared_ptr<KvStateStorage> storage_;
  std::shared_ptr<JournalProbeStorage> probe_;
};

TEST_F(PersistencePolicyTest, OnEveryUpdateWritesEachTime) {
  auto c = harness_.cluster().Ref<EveryUpdateCounter>("c");
  for (int i = 0; i < 3; ++i) c.Tell(&EveryUpdateCounter::Add, int64_t{1});
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(StoredKeys(), 1);
  // The stored snapshot is already current without any deactivation.
  auto stored = backing_->Get("grain/test.EveryUpdate/c");
  ASSERT_TRUE(stored.ok());
  BufReader r(stored.value());
  CounterState st;
  ASSERT_TRUE(st.Decode(&r).ok());
  EXPECT_EQ(st.value, 3);
}

TEST_F(PersistencePolicyTest, WindowedWritesAfterNUpdates) {
  auto c = harness_.cluster().Ref<WindowedCounter>("c");
  for (int i = 0; i < 4; ++i) c.Tell(&WindowedCounter::Add, int64_t{1});
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(StoredKeys(), 0) << "below the window threshold: no write";
  c.Tell(&WindowedCounter::Add, int64_t{1});  // 5th update hits the window.
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(StoredKeys(), 1);
}

TEST_F(PersistencePolicyTest, OnDeactivateWritesOnlyAtDeactivation) {
  auto c = harness_.cluster().Ref<DeactivateCounter>("c");
  for (int i = 0; i < 50; ++i) c.Tell(&DeactivateCounter::Add, int64_t{1});
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(StoredKeys(), 0);
  auto flushed = harness_.cluster().DeactivateAll();
  harness_.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(flushed.Get().value().ok());
  EXPECT_EQ(StoredKeys(), 1);
  // And the value survives reactivation.
  auto v = c.Call(&DeactivateCounter::Value);
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(v.Get().value(), 50);
}

// --- State journal -----------------------------------------------------------

TEST_F(PersistencePolicyTest, JournalRecordsFoldInOnReactivation) {
  for (int64_t i = 1; i <= 10; ++i) ASSERT_TRUE(AddDurable("j", i).ok());
  // A fresh grain has no snapshot for records to follow: its first durable
  // write is a snapshot, and the other nine are records.
  EXPECT_EQ(probe_->snapshot_writes, 1);
  EXPECT_EQ(probe_->record_writes, 9);
  EXPECT_EQ(StoredKeys(), 10);

  // Nothing was flushed: the load folds every record into the snapshot,
  // then reads one missing record that ends the journal.
  Reloaded r = ReloadJournalCounter(storage_.get(), "j");
  EXPECT_EQ(r.value, 55);
  EXPECT_EQ(r.snapshot_reads, 1);
  EXPECT_EQ(r.record_reads, 10);
}

TEST_F(PersistencePolicyTest, UnjournaledMarkMakesTheNextWriteASnapshot) {
  ASSERT_TRUE(AddDurable("m", 1).ok());  // Snapshot.
  ASSERT_TRUE(AddDurable("m", 1).ok());  // Record 0.
  // A record carries only its own mutation, so one behind this dirty mark
  // would lose the mark's add on a crash.
  auto add = harness_.cluster().Ref<JournalCounter>("m").Call(
      &JournalCounter::Add, int64_t{10});
  harness_.RunFor(10 * kMicrosPerMilli);
  ASSERT_TRUE(add.Ready());
  ASSERT_TRUE(AddDurable("m", 1).ok());
  EXPECT_EQ(probe_->snapshot_writes, 2);
  EXPECT_EQ(probe_->record_writes, 1);
  EXPECT_EQ(ReloadJournalCounter(storage_.get(), "m").value, 13);
}

TEST(JournalFileKvTest, ReopenedStoreRestoresEveryAckedRecord) {
  RegisterJournalCounterWire();
  TempDir dir;
  int64_t acked = 0;
  {
    auto kv = FileKvStore::Open(dir.str());
    ASSERT_TRUE(kv.ok());
    auto storage = std::make_shared<KvStateStorage>(kv.value().get());
    SimHarness harness{RuntimeOptions{}};
    harness.cluster().RegisterActorType<JournalCounter>();
    harness.cluster().RegisterStateStorage("default", storage);
    auto c = harness.cluster().Ref<JournalCounter>("f");
    for (int64_t i = 1; i <= 20; ++i) {
      auto f = c.Call(&JournalCounter::AddDurable, i);
      harness.RunFor(10 * kMicrosPerMilli);
      ASSERT_TRUE(f.Ready());
      ASSERT_TRUE(f.Get().ok() && f.Get().value().ok());
      acked += i;
    }
    // The cluster goes away without deactivating anything.
  }
  auto kv = FileKvStore::Open(dir.str());
  ASSERT_TRUE(kv.ok());
  KvStateStorage storage(kv.value().get());
  Reloaded r = ReloadJournalCounter(&storage, "f");
  EXPECT_EQ(r.value, acked);
  EXPECT_GT(r.record_reads, 1) << "the reload must have read the journal";
}

TEST_F(PersistencePolicyTest, FailedRecordFailsTheRecordsQueuedBehindIt) {
  ASSERT_TRUE(AddDurable("b", 1).ok());  // Snapshot.
  ASSERT_TRUE(AddDurable("b", 1).ok());  // Record 0.
  ASSERT_EQ(probe_->record_writes, 1);

  // Every write now stays in flight for 50 ms and then fails for good.
  FaultPlan plan;
  plan.storage.torn_write_prob = 1.0;
  plan.storage.latency_spike_prob = 1.0;
  FaultInjector injector(plan);
  FaultyStateStorage faulty(storage_, &injector);
  probe_->set_target(&faulty);
  auto c = harness_.cluster().Ref<JournalCounter>("b");
  std::vector<Future<Status>> acks;
  for (int i = 0; i < 3; ++i) {
    acks.push_back(c.Call(&JournalCounter::AddDurable, int64_t{1}));
  }
  harness_.RunFor(kMicrosPerSecond);
  for (auto& f : acks) {
    ASSERT_TRUE(f.Ready());
    ASSERT_TRUE(f.Get().ok());
    EXPECT_EQ(f.Get().value().code(), StatusCode::kIoError)
        << f.Get().value().ToString();
  }
  // Records 2 and 3 queued behind record 1 and failed with it, unissued:
  // issuing them would have left a hole where record 1 is missing.
  EXPECT_EQ(injector.torn_writes(), 1);
  EXPECT_EQ(probe_->record_writes, 2);

  // The next durable write is a snapshot, and nothing acked is lost.
  probe_->set_target(storage_.get());
  int64_t snapshots = probe_->snapshot_writes;
  ASSERT_TRUE(AddDurable("b", 1).ok());
  EXPECT_EQ(probe_->snapshot_writes, snapshots + 1);
  EXPECT_EQ(probe_->record_writes, 2);
  // The snapshot also carries the three failed adds, which stayed applied
  // in memory: the acked ones (three of six) are a subset.
  EXPECT_EQ(ReloadJournalCounter(storage_.get(), "b").value, 6);
}

TEST_F(PersistencePolicyTest, JournalStaysBoundedOverManyAppends) {
  // The ~262-byte snapshot bounds its journal to 262 / 8 = 32 one-byte
  // records; superseded records are cleared once the next snapshot lands.
  constexpr int64_t kMaxKeys = 1 + 262 / 8;
  int64_t max_keys = 0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(AddDurable("n", 1).ok()) << "append " << i;
    max_keys = std::max(max_keys, StoredKeys());
  }
  EXPECT_LE(max_keys, kMaxKeys);
  EXPECT_GT(probe_->record_writes, 20 * probe_->snapshot_writes)
      << "appends must mostly be records";
  EXPECT_EQ(ReloadJournalCounter(storage_.get(), "n").value, 1000);
}

TEST_F(PersistencePolicyTest, SealedSnapshotLoadsWithoutJournalRead) {
  ASSERT_TRUE(AddDurable("s", 1).ok());
  EXPECT_EQ(probe_->snapshot_writes, 1) << "a fresh grain writes a snapshot";
  EXPECT_EQ(probe_->record_writes, 0);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(AddDurable("s", 1).ok());
  EXPECT_EQ(probe_->record_writes, 3);

  // Clean, but with records behind its snapshot: the deactivation flush
  // seals the journal into one snapshot and clears the records.
  auto flushed = harness_.cluster().DeactivateAll();
  harness_.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(flushed.Get().value().ok());
  EXPECT_EQ(probe_->snapshot_writes, 2);
  EXPECT_EQ(StoredKeys(), 1);

  int64_t reads = probe_->snapshot_reads;
  auto v = harness_.cluster().Ref<JournalCounter>("s").Call(
      &JournalCounter::Value);
  harness_.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(v.Ready());
  EXPECT_EQ(v.Get().value(), 4);
  EXPECT_EQ(probe_->snapshot_reads, reads + 1);
  EXPECT_EQ(probe_->record_reads, 0) << "a sealed snapshot has no journal";

  // A record behind the sealed snapshot would be skipped by the next load:
  // the successor's first durable write reopens the journal with a snapshot.
  ASSERT_TRUE(AddDurable("s", 1).ok());
  EXPECT_EQ(probe_->snapshot_writes, 3);
  EXPECT_EQ(probe_->record_writes, 3);
  ASSERT_TRUE(AddDurable("s", 1).ok());
  EXPECT_EQ(probe_->record_writes, 4);
  EXPECT_EQ(ReloadJournalCounter(storage_.get(), "s").value, 6);
}

// --- FaultyStateStorage: torn writes -----------------------------------------

TEST(FaultyStorageTornWriteTest, TornWriteFailsUnackedAndKeepsPriorSnapshot) {
  SimHarness harness{RuntimeOptions{}};
  Executor* exec = harness.client_executor();
  auto backing = std::make_shared<MemKvStore>();
  auto inner = std::make_shared<KvStateStorage>(backing.get());

  // Establish a durable snapshot through the clean path.
  auto seeded = inner->Write("grain/dst/x", "v1", exec);
  harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(seeded.Ready());
  ASSERT_TRUE(seeded.Get().ok() && seeded.Get().value().ok());

  FaultPlan plan;
  plan.storage.torn_write_prob = 1.0;
  FaultInjector injector(plan);
  FaultyStateStorage faulty(inner, &injector);

  // Every write tears: it must fail un-acked, with a non-transient error
  // (the persistence retry loop must not spin on it — the record is gone).
  auto torn = faulty.Write("grain/dst/x", "v2", exec);
  harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(torn.Ready());
  Result<Status> r = torn.Get();
  Status st = r.ok() ? r.value() : r.status();
  ASSERT_FALSE(st.ok()) << "a torn write must never be acked";
  EXPECT_FALSE(IsTransient(st))
      << "torn writes are not retryable in place: " << st.ToString();
  EXPECT_EQ(injector.torn_writes(), 1);

  // The previous durable snapshot is untouched — recovery dropped only the
  // torn tail record, exactly FileKvStore's contract.
  auto read = faulty.Read("grain/dst/x", exec);
  harness.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(read.Ready());
  ASSERT_TRUE(read.Get().ok()) << read.Get().status().ToString();
  EXPECT_EQ(read.Get().value(), "v1");
}

}  // namespace
}  // namespace aodb
