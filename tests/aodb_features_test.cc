// Tests of the AODB database features layered over the actor runtime:
// type registry, secondary indexes, multi-actor queries, 2PC transactions
// (including conflict and contention behaviour), and saga workflows.

#include <gtest/gtest.h>

#include "aodb/index.h"
#include "aodb/query.h"
#include "aodb/registry.h"
#include "aodb/txn.h"
#include "aodb/wire.h"
#include "aodb/workflow.h"
#include "sim/sim_harness.h"
#include "wire_methods.h"

namespace aodb {
namespace {

/// An account actor with a transactional balance, used to test transfers.
class AccountActor : public TransactionalActor {
 public:
  static constexpr char kTypeName[] = "test.Account";

  Status Deposit(int64_t amount) {
    balance_ += amount;
    return Status::OK();
  }
  int64_t Balance() { return balance_; }

 protected:
  // Ops: "credit:<n>" and "debit:<n>" with overdraft protection.
  Status ValidateOp(const std::string& op, const std::string& arg) override {
    int64_t amount = std::atoll(arg.c_str());
    if (op == "credit") return Status::OK();
    if (op == "debit") {
      // Include already-staged debits so a transaction cannot overdraw by
      // splitting into several ops.
      if (balance_ - staged_debits_ < amount) {
        return Status::FailedPrecondition("insufficient funds");
      }
      staged_debits_ += amount;
      return Status::OK();
    }
    return Status::InvalidArgument("unknown op " + op);
  }
  void ApplyOp(const std::string& op, const std::string& arg) override {
    int64_t amount = std::atoll(arg.c_str());
    if (op == "credit") balance_ += amount;
    if (op == "debit") {
      balance_ -= amount;
      staged_debits_ -= amount;
    }
  }
  void UnstageOp(const std::string& op, const std::string& arg) override {
    if (op == "debit") staged_debits_ -= std::atoll(arg.c_str());
  }
 private:
  int64_t balance_ = 0;
  int64_t staged_debits_ = 0;
};

/// A tagged item registered in the type registry and a tag index.
class ItemActor : public ActorBase {
 public:
  static constexpr char kTypeName[] = "test.Item";

  Status Init(std::string tag, int64_t value) {
    tag_ = std::move(tag);
    value_ = value;
    TypeRegistry::Add(ctx(), kTypeName, ctx().self().key);
    ActorIndex("item_by_tag").Insert(ctx(), tag_, ctx().self().key);
    return Status::OK();
  }
  Status Retag(std::string new_tag) {
    ActorIndex("item_by_tag").Update(ctx(), tag_, new_tag,
                                     ctx().self().key);
    tag_ = std::move(new_tag);
    return Status::OK();
  }
  int64_t Value() { return value_; }
  std::string Tag() { return tag_; }

 private:
  std::string tag_;
  int64_t value_ = 0;
};

class AodbFeaturesTest : public ::testing::Test {
 protected:
  AodbFeaturesTest() : harness_(MakeOptions()) {
    EXPECT_TRUE(RegisterAodbCoreWireMethods().ok());
    EXPECT_TRUE(
        RegisterTransactionalWireMethods(AccountActor::kTypeName).ok());
    RegisterWire<AccountActor>(&AccountActor::Deposit, "Deposit",
                               &AccountActor::Balance, "Balance");
    RegisterWire<ItemActor>(&ItemActor::Init, "Init", &ItemActor::Retag,
                            "Retag", &ItemActor::Value, "Value",
                            &ItemActor::Tag, "Tag");
    harness_.cluster().RegisterActorType<AccountActor>();
    harness_.cluster().RegisterActorType<ItemActor>();
    harness_.cluster().RegisterActorType<RegistryActor>();
    harness_.cluster().RegisterActorType<IndexActor>();
  }

  static RuntimeOptions MakeOptions() {
    RuntimeOptions o;
    o.num_silos = 2;
    o.workers_per_silo = 2;
    return o;
  }

  template <typename T>
  T Must(Future<T> f, Micros run_for = 20 * kMicrosPerSecond) {
    harness_.RunFor(run_for);
    auto r = f.Get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  SimHarness harness_;
};

TEST_F(AodbFeaturesTest, CommittedTransferMovesMoney) {
  auto a = harness_.cluster().Ref<AccountActor>("a");
  auto b = harness_.cluster().Ref<AccountActor>("b");
  Must(a.Call(&AccountActor::Deposit, int64_t{100}));
  TxnManager txn(&harness_.cluster());
  Status st = Must(txn.Run({
      TxnOp{AccountActor::kTypeName, "a", "debit", "40"},
      TxnOp{AccountActor::kTypeName, "b", "credit", "40"},
  }));
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(Must(a.Call(&AccountActor::Balance)), 60);
  EXPECT_EQ(Must(b.Call(&AccountActor::Balance)), 40);
}

TEST_F(AodbFeaturesTest, FailedValidationAbortsAtomically) {
  auto a = harness_.cluster().Ref<AccountActor>("a2");
  auto b = harness_.cluster().Ref<AccountActor>("b2");
  Must(a.Call(&AccountActor::Deposit, int64_t{10}));
  TxnManager txn(&harness_.cluster());
  Status st = Must(txn.Run({
      TxnOp{AccountActor::kTypeName, "a2", "debit", "40"},  // Overdraft.
      TxnOp{AccountActor::kTypeName, "b2", "credit", "40"},
  }));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(Must(a.Call(&AccountActor::Balance)), 10);
  EXPECT_EQ(Must(b.Call(&AccountActor::Balance)), 0)
      << "credit must not apply when the debit failed";
}

TEST_F(AodbFeaturesTest, ConcurrentConflictingTransfersSerialize) {
  // Ten concurrent transfers moving 10 each out of a shared account with
  // exactly 50: exactly five must commit.
  auto hub = harness_.cluster().Ref<AccountActor>("hub");
  Must(hub.Call(&AccountActor::Deposit, int64_t{50}));
  RetryPolicy txn_retry;
  txn_retry.max_retries = 25;
  txn_retry.initial_backoff_us = 10 * kMicrosPerMilli;
  TxnManager txn(&harness_.cluster(), TxnOptions{txn_retry});
  std::vector<Future<Status>> transfers;
  for (int i = 0; i < 10; ++i) {
    transfers.push_back(txn.Run({
        TxnOp{AccountActor::kTypeName, "hub", "debit", "10"},
        TxnOp{AccountActor::kTypeName, "sink" + std::to_string(i), "credit",
              "10"},
    }));
  }
  auto results = Must(WhenAll(transfers), 120 * kMicrosPerSecond);
  int committed = 0;
  for (auto& r : results) {
    if (r.ok() && r.value().ok()) ++committed;
  }
  EXPECT_EQ(committed, 5);
  EXPECT_EQ(Must(hub.Call(&AccountActor::Balance)), 0);
  int64_t sink_total = 0;
  for (int i = 0; i < 10; ++i) {
    sink_total += Must(harness_.cluster()
                           .Ref<AccountActor>("sink" + std::to_string(i))
                           .Call(&AccountActor::Balance));
  }
  EXPECT_EQ(sink_total, 50) << "money is conserved";
  EXPECT_GT(txn.aborts(), 0) << "lock conflicts must have occurred";
}

TEST_F(AodbFeaturesTest, RegistryListsAllInstances) {
  for (int i = 0; i < 25; ++i) {
    harness_.cluster()
        .Ref<ItemActor>("item" + std::to_string(i))
        .Tell(&ItemActor::Init, std::string("tag"), int64_t{i});
  }
  harness_.RunFor(10 * kMicrosPerSecond);
  auto keys = Must(TypeRegistry::ListAll(harness_.cluster(),
                                         ItemActor::kTypeName));
  EXPECT_EQ(keys.size(), 25u);
}

TEST_F(AodbFeaturesTest, QueryAllProjectsEveryActor) {
  for (int i = 0; i < 10; ++i) {
    harness_.cluster()
        .Ref<ItemActor>("q" + std::to_string(i))
        .Tell(&ItemActor::Init, std::string("t"), int64_t{i});
  }
  harness_.RunFor(10 * kMicrosPerSecond);
  auto values = Must(
      QueryAll<ItemActor>(harness_.cluster(), &ItemActor::Value));
  ASSERT_EQ(values.size(), 10u);
  int64_t sum = 0;
  for (int64_t v : values) sum += v;
  EXPECT_EQ(sum, 45);
}

TEST_F(AodbFeaturesTest, QueryWhereFilters) {
  for (int i = 0; i < 10; ++i) {
    harness_.cluster()
        .Ref<ItemActor>("w" + std::to_string(i))
        .Tell(&ItemActor::Init, std::string("t"), int64_t{i});
  }
  harness_.RunFor(10 * kMicrosPerSecond);
  auto big = Must(QueryWhere<ItemActor>(
      harness_.cluster(), &ItemActor::Value,
      [](const int64_t& v) { return v >= 7; }));
  EXPECT_EQ(big.size(), 3u);
}

TEST_F(AodbFeaturesTest, IndexLookupAndReindex) {
  ActorIndex index("item_by_tag");
  harness_.cluster().Ref<ItemActor>("x1").Tell(&ItemActor::Init,
                                               std::string("red"),
                                               int64_t{1});
  harness_.cluster().Ref<ItemActor>("x2").Tell(&ItemActor::Init,
                                               std::string("red"),
                                               int64_t{2});
  harness_.cluster().Ref<ItemActor>("x3").Tell(&ItemActor::Init,
                                               std::string("blue"),
                                               int64_t{3});
  harness_.RunFor(10 * kMicrosPerSecond);
  auto red = Must(index.Lookup(harness_.cluster(), "red"));
  EXPECT_EQ(red.size(), 2u);
  // Retag x2 to blue; the index must follow.
  harness_.cluster().Ref<ItemActor>("x2").Tell(&ItemActor::Retag,
                                               std::string("blue"));
  harness_.RunFor(10 * kMicrosPerSecond);
  EXPECT_EQ(Must(index.Lookup(harness_.cluster(), "red")).size(), 1u);
  EXPECT_EQ(Must(index.Lookup(harness_.cluster(), "blue")).size(), 2u);
}

TEST_F(AodbFeaturesTest, QueryByIndexProjectsHits) {
  ActorIndex index("item_by_tag");
  for (int i = 0; i < 6; ++i) {
    harness_.cluster()
        .Ref<ItemActor>("y" + std::to_string(i))
        .Tell(&ItemActor::Init,
              std::string(i % 2 == 0 ? "even" : "odd"), int64_t{i});
  }
  harness_.RunFor(10 * kMicrosPerSecond);
  auto evens = Must(QueryByIndex<ItemActor>(harness_.cluster(), index,
                                            "even", &ItemActor::Value));
  ASSERT_EQ(evens.size(), 3u);
  int64_t sum = 0;
  for (int64_t v : evens) sum += v;
  EXPECT_EQ(sum, 0 + 2 + 4);
}

TEST_F(AodbFeaturesTest, WorkflowRunsStepsInOrder) {
  auto a = harness_.cluster().Ref<AccountActor>("wf-a");
  Must(a.Call(&AccountActor::Deposit, int64_t{30}));
  WorkflowEngine engine(&harness_.cluster());
  Status st = Must(engine.Run({
      WorkflowStep{AccountActor::kTypeName, "wf-a", "debit", "30", "credit",
                   "30"},
      WorkflowStep{AccountActor::kTypeName, "wf-b", "credit", "30", "debit",
                   "30"},
  }));
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(Must(a.Call(&AccountActor::Balance)), 0);
  EXPECT_EQ(engine.steps_executed(), 2);
}

TEST_F(AodbFeaturesTest, WorkflowRetriesOnLockConflict) {
  // Lock wf-c with a bare prepare (no commit) and start a workflow touching
  // it. The workflow must retry until the transactional lock times out and
  // is broken, then succeed.
  auto c = harness_.cluster().Ref<AccountActor>("wf-c");
  // Short RunFor: the ghost lock must still be fresh when the workflow
  // makes its first attempt (the transactional lock timeout is 5s).
  Must(c.Call(&AccountActor::TxnPrepare, std::string("ghost-txn"),
              std::string("credit"), std::string("1")),
       kMicrosPerSecond);
  RetryPolicy wf_retry;
  wf_retry.max_retries = 10;
  wf_retry.initial_backoff_us = 500 * kMicrosPerMilli;
  wf_retry.max_backoff_us = 2 * kMicrosPerSecond;
  WorkflowEngine engine(&harness_.cluster(), WorkflowOptions{wf_retry});
  auto f = engine.Run({WorkflowStep{AccountActor::kTypeName, "wf-c",
                                    "credit", "5", "", ""}});
  harness_.RunFor(30 * kMicrosPerSecond);
  auto st = f.Get();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st.value().ok()) << st.value().ToString();
  EXPECT_GT(engine.retries(), 0);
}

TEST_F(AodbFeaturesTest, StaleLockIsBrokenAfterTimeoutAndUnstagesEveryOp) {
  auto a = harness_.cluster().Ref<AccountActor>("stale");
  Must(a.Call(&AccountActor::Deposit, int64_t{100}));
  // A coordinator that crashes right after prepare: stage two debits under
  // one transaction and never send phase 2.
  // Short RunFor steps: the lock must still be fresh (5 s timeout) when the
  // competing prepare arrives below.
  EXPECT_TRUE(Must(a.Call(&AccountActor::TxnPrepare, std::string("dead-txn"),
                          std::string("debit"), std::string("30")),
                   kMicrosPerSecond)
                  .ok());
  EXPECT_TRUE(Must(a.Call(&AccountActor::TxnPrepare, std::string("dead-txn"),
                          std::string("debit"), std::string("30")),
                   kMicrosPerSecond)
                  .ok());
  EXPECT_TRUE(Must(a.Call(&AccountActor::TxnLocked), kMicrosPerSecond));
  // While the lock is fresh, a competing prepare must abort.
  EXPECT_TRUE(Must(a.Call(&AccountActor::TxnPrepare, std::string("early"),
                          std::string("debit"), std::string("10")),
                   kMicrosPerSecond)
                  .IsAborted());
  harness_.RunFor(TransactionalActor::kLockTimeoutUs + kMicrosPerSecond);
  // The next prepare breaks the stale lock. Both staged debits (60 in
  // reservations) must have been unstaged — a debit of 80 only validates
  // against the 100 balance if no reservation leaked.
  EXPECT_TRUE(Must(a.Call(&AccountActor::TxnPrepare, std::string("fresh"),
                          std::string("debit"), std::string("80")))
                  .ok());
  a.Tell(&AccountActor::TxnCommit, std::string("fresh"));
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(Must(a.Call(&AccountActor::Balance)), 20)
      << "only the fresh transaction's debit applies";
  // And the dead transaction's ops must never apply, even if its
  // coordinator wakes up and commits after the break.
  a.Tell(&AccountActor::TxnCommit, std::string("dead-txn"));
  harness_.RunFor(kMicrosPerSecond);
  EXPECT_EQ(Must(a.Call(&AccountActor::Balance)), 20);
  EXPECT_FALSE(Must(a.Call(&AccountActor::TxnLocked)));
}

}  // namespace
}  // namespace aodb
