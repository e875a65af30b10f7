// Scheduling invariants of the work-stealing executor and batched actor
// turns: task completion and shutdown drain, timer deadline ordering,
// per-actor turn serialization, same-sender FIFO, and batch fairness; and of
// the network links that run cross-node deliveries on the receiver's
// workers: arrival order, and no detour through the timer thread.
// These are the properties that stealing and batching are NOT allowed to
// break; the suite runs under ASan and TSan in tier-1 (see scripts/tier1.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "actor/actor_ref.h"
#include "actor/link.h"
#include "actor/method_registry.h"
#include "actor/runtime.h"
#include "actor/thread_pool.h"

namespace aodb {
namespace {

/// Spin-waits (with yields) until `pred` holds, up to ~10 s of wall time.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 10000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(ThreadPool, RunsAllTasksFromExternalAndWorkerThreads) {
  ThreadPoolExecutor pool(4);
  constexpr int kExternal = 500;
  std::atomic<int> ran{0};
  for (int i = 0; i < kExternal; ++i) {
    // Each external task posts one follow-on from the worker thread itself,
    // exercising both the round-robin external path and the LIFO-slot local
    // path.
    pool.Post(Task{[&pool, &ran] {
                     ran.fetch_add(1);
                     pool.Post(Task{[&ran] { ran.fetch_add(1); }, 0});
                   },
                   0});
  }
  EXPECT_TRUE(WaitFor([&] { return ran.load() == 2 * kExternal; }));
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 2 * kExternal);
}

TEST(ThreadPool, ShutdownDrainsPendingImmediateTasks) {
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  {
    ThreadPoolExecutor pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Post(Task{[&ran] { ran.fetch_add(1); }, 0});
    }
    pool.Shutdown();  // Must not drop queued work.
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, StatsMergePerWorkerShards) {
  ThreadPoolExecutor pool(4);
  constexpr int kTasks = 300;
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Post(Task{[&ran] { ran.fetch_add(1); }, 0});
  }
  ASSERT_TRUE(WaitFor([&] { return ran.load() == kTasks; }));
  ASSERT_TRUE(WaitFor([&] { return pool.Stats().tasks_run == kTasks; }));
  ExecutorStats s = pool.Stats();
  EXPECT_EQ(s.tasks_run, kTasks);
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_GE(s.steals, 0);
  EXPECT_GE(s.parks, 0);
  pool.Shutdown();
}

TEST(ThreadPool, PostAtFiresInDeadlineOrder) {
  ThreadPoolExecutor pool(2);
  Micros now = pool.clock()->Now();
  std::mutex mu;
  std::vector<int> order;
  auto mark = [&mu, &order](int tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
  };
  // Inserted out of order; must fire by deadline, not insertion.
  pool.PostAt(now + 60000, [&] { mark(3); });
  pool.PostAt(now + 20000, [&] { mark(1); });
  pool.PostAt(now + 40000, [&] { mark(2); });
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return order.size() == 3;
  }));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  pool.Shutdown();
}

TEST(ThreadPool, EarlierDeadlineInsertedLaterStillFiresPromptly) {
  ThreadPoolExecutor pool(2);
  Micros now = pool.clock()->Now();
  std::atomic<bool> early_ran{false};
  // A far-future entry parks the timer thread on a long wait; the late
  // insertion of a near deadline must wake it (the new-earliest notify),
  // not ride out the original wait.
  pool.PostAt(now + 30 * kMicrosPerSecond, [] {});
  pool.PostAt(now + 10000, [&early_ran] { early_ran.store(true); });
  ASSERT_TRUE(WaitFor([&] { return early_ran.load(); }));
  EXPECT_LT(pool.clock()->Now() - now, 5 * kMicrosPerSecond);
  pool.Shutdown();
}

/// What ran over a link, in run order: message tag, thread, and time.
struct RunLog {
  std::mutex mu;
  std::vector<int> tags;
  std::vector<std::thread::id> threads;
  std::vector<Micros> at;

  void Mark(int tag, Micros now) {
    std::lock_guard<std::mutex> lock(mu);
    tags.push_back(tag);
    threads.push_back(std::this_thread::get_id());
    at.push_back(now);
  }
  size_t Size() {
    std::lock_guard<std::mutex> lock(mu);
    return tags.size();
  }
};

/// The pool's timer thread: the thread its PostAt callbacks run on.
std::thread::id TimerThreadOf(ThreadPoolExecutor& pool) {
  std::promise<std::thread::id> id;
  pool.PostAt(pool.clock()->Now(),
              [&id] { id.set_value(std::this_thread::get_id()); });
  return id.get_future().get();
}

TEST(Link, DueMessagesRunOnWorkersInPushOrder) {
  ThreadPoolExecutor pool(4);
  const std::thread::id timer = TimerThreadOf(pool);
  Link link(&pool);
  RunLog log;
  constexpr int kMessages = 2000;
  Clock* clock = pool.clock();
  for (int i = 0; i < kMessages; ++i) {
    link.Push(clock->Now(), [&log, clock, i] { log.Mark(i, clock->Now()); });
  }
  ASSERT_TRUE(WaitFor([&] { return log.Size() == kMessages; }));
  pool.Shutdown();  // Joins the last drain task before `link` goes away.
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_EQ(log.tags[i], i) << "link delivered out of push order";
    ASSERT_NE(log.threads[i], timer) << "due message ran on the timer thread";
  }
}

TEST(Link, HeldMessagesRunInArrivalOrderOnceDue) {
  ThreadPoolExecutor pool(2);
  const std::thread::id timer = TimerThreadOf(pool);
  Link link(&pool);
  RunLog log;
  Clock* clock = pool.clock();
  const Micros now = clock->Now();
  // Pushed latest-first: the link orders by arrival time, not push order,
  // and the message due now does not wait behind the later ones' timer.
  link.Push(now + 60000, [&log, clock] { log.Mark(3, clock->Now()); });
  link.Push(now + 20000, [&log, clock] { log.Mark(2, clock->Now()); });
  link.Push(now, [&log, clock] { log.Mark(1, clock->Now()); });
  ASSERT_TRUE(WaitFor([&] { return log.Size() == 3; }));
  pool.Shutdown();
  EXPECT_EQ(log.tags, (std::vector<int>{1, 2, 3}));
  EXPECT_LT(log.at[0], now + 20000);
  EXPECT_GE(log.at[1], now + 20000);
  EXPECT_GE(log.at[2], now + 60000);
  for (const std::thread::id& t : log.threads) EXPECT_NE(t, timer);
}

/// Detects overlapping turns: Enter/exit marks around each method body. Any
/// concurrent entry — two workers running the same activation — is counted
/// as a violation. Members are atomics only so the DETECTOR itself is race-
/// free; the runtime's guarantee is that they never observe overlap.
class SerialProbe : public ActorBase {
 public:
  static constexpr char kTypeName[] = "sched.SerialProbe";

  void Enter(int64_t spin) {
    if (in_turn_.exchange(true, std::memory_order_acq_rel)) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
    for (int64_t i = 0; i < spin; ++i) {
      asm volatile("" ::: "memory");  // Widen the would-be race window.
    }
    in_turn_.store(false, std::memory_order_release);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  int64_t Count() { return count_.load(std::memory_order_relaxed); }
  int64_t Violations() {
    return violations_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> in_turn_{false};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> violations_{0};
};

TEST(Scheduling, TurnsStaySerializedUnderStealingAndBatching) {
  RuntimeOptions options;
  options.num_silos = 1;
  options.workers_per_silo = 8;  // Ample opportunity to co-schedule.
  options.network.client_latency_us = 0;
  options.network.jitter_us = 0;
  RealClusterHandle handle(options);
  handle->RegisterActorType<SerialProbe>();
  auto ref = handle->Ref<SerialProbe>("probe");
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ref] {
      for (int i = 0; i < kPerProducer; ++i) {
        ref.Tell(&SerialProbe::Enter, int64_t{25});
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(WaitFor([&] {
    return ref.Call(&SerialProbe::Count).Get().value() ==
           kProducers * kPerProducer;
  }));
  EXPECT_EQ(ref.Call(&SerialProbe::Violations).Get().value(), 0);
}

/// Checks that within each stream (one sender thread), sequence numbers
/// arrive in send order — stealing may reorder tasks globally, but never
/// messages of one sender to one actor. Push echoes `seq` so a caller can
/// check the order its replies come back in as well.
class StreamChecker : public ActorBase {
 public:
  static constexpr char kTypeName[] = "sched.StreamChecker";

  int64_t Push(int64_t stream, int64_t seq) {
    int64_t& next = next_[stream];
    if (seq != next) ++violations_;
    next = seq + 1;
    ++total_;
    return seq;
  }
  int64_t Total() { return total_; }
  int64_t Violations() { return violations_; }

 private:
  std::map<int64_t, int64_t> next_;
  int64_t total_ = 0;
  int64_t violations_ = 0;
};

TEST(Scheduling, SameSenderFifoSurvivesStealingAndBatching) {
  RuntimeOptions options;
  options.num_silos = 1;
  options.workers_per_silo = 8;
  options.network.client_latency_us = 0;
  options.network.jitter_us = 0;
  RealClusterHandle handle(options);
  handle->RegisterActorType<StreamChecker>();
  auto ref = handle->Ref<StreamChecker>("streams");
  constexpr int kStreams = 4;
  constexpr int kPerStream = 300;
  std::vector<std::thread> producers;
  for (int p = 0; p < kStreams; ++p) {
    producers.emplace_back([&ref, p] {
      for (int64_t i = 0; i < kPerStream; ++i) {
        ref.Tell(&StreamChecker::Push, int64_t{p}, i);
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(WaitFor([&] {
    return ref.Call(&StreamChecker::Total).Get().value() ==
           kStreams * kPerStream;
  }));
  EXPECT_EQ(ref.Call(&StreamChecker::Violations).Get().value(), 0);
}

class CountActor : public ActorBase {
 public:
  static constexpr char kTypeName[] = "sched.Count";
  int64_t Add(int64_t d) {
    value_ += d;
    return value_;
  }
  int64_t Value() { return value_; }

 private:
  int64_t value_ = 0;
};

/// A flooded actor must not starve a lightly-loaded one: the batch cap
/// forces the hot activation to yield its worker between batches.
TEST(Scheduling, BatchCapBoundsHotActorMonopoly) {
  RuntimeOptions options;
  options.num_silos = 1;
  options.workers_per_silo = 2;
  options.max_turn_batch = 4;
  options.network.client_latency_us = 0;
  options.network.jitter_us = 0;
  RealClusterHandle handle(options);
  handle->RegisterActorType<CountActor>();
  auto hot = handle->Ref<CountActor>("hot");
  auto cold = handle->Ref<CountActor>("cold");
  constexpr int kHot = 600;
  constexpr int kCold = 60;
  for (int i = 0; i < kHot; ++i) {
    hot.Tell(&CountActor::Add, int64_t{1});
    if (i % (kHot / kCold) == 0) cold.Tell(&CountActor::Add, int64_t{1});
  }
  ASSERT_TRUE(WaitFor([&] {
    return cold.Call(&CountActor::Value).Get().value() == kCold &&
           hot.Call(&CountActor::Value).Get().value() == kHot;
  }));
  EXPECT_EQ(hot.Call(&CountActor::Value).Get().value(), kHot);
  EXPECT_EQ(cold.Call(&CountActor::Value).Get().value(), kCold);
}

TEST(Scheduling, BatchSizeOneProcessesEveryMessage) {
  RuntimeOptions options;
  options.num_silos = 1;
  options.workers_per_silo = 2;
  options.max_turn_batch = 1;  // Batching disabled: one envelope per task.
  options.network.client_latency_us = 0;
  options.network.jitter_us = 0;
  RealClusterHandle handle(options);
  handle->RegisterActorType<CountActor>();
  auto ref = handle->Ref<CountActor>("one");
  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    ref.Tell(&CountActor::Add, int64_t{1});
  }
  ASSERT_TRUE(WaitFor([&] {
    return ref.Call(&CountActor::Value).Get().value() == kMessages;
  }));
  EXPECT_EQ(ref.Call(&CountActor::Value).Get().value(), kMessages);
}

/// Sends one stream of sequence-numbered tells to a StreamChecker from
/// inside a single turn, so the whole stream rides one silo-to-silo link.
class StreamSource : public ActorBase {
 public:
  static constexpr char kTypeName[] = "sched.StreamSource";

  void Run(std::string checker, int64_t stream, int64_t count) {
    ActorRef<StreamChecker> ref = ctx().Ref<StreamChecker>(checker);
    for (int64_t i = 0; i < count; ++i) {
      ref.Tell(&StreamChecker::Push, stream, i);
    }
  }
};

/// Puts the stream actors on the wire lane, so cross-silo streams travel as
/// encoded frames.
void RegisterStreamWireMethods() {
  static const Status st = [] {
    MethodRegistry& reg = MethodRegistry::Global();
    AODB_RETURN_NOT_OK(reg.Register(StreamChecker::kTypeName,
                                    &StreamChecker::Push,
                                    "StreamChecker.Push"));
    AODB_RETURN_NOT_OK(reg.Register(StreamChecker::kTypeName,
                                    &StreamChecker::Total,
                                    "StreamChecker.Total",
                                    /*idempotent=*/true));
    AODB_RETURN_NOT_OK(reg.Register(StreamChecker::kTypeName,
                                    &StreamChecker::Violations,
                                    "StreamChecker.Violations",
                                    /*idempotent=*/true));
    return reg.Register(StreamSource::kTypeName, &StreamSource::Run,
                        "StreamSource.Run");
  }();
  ASSERT_TRUE(st.ok()) << st.ToString();
}

/// A key of actor type `type` that the directory places on `silo`.
std::string KeyPlacedOn(Cluster& cluster, const std::string& type,
                        const std::string& prefix, SiloId silo) {
  for (int i = 0;; ++i) {
    std::string key = prefix + std::to_string(i);
    if (cluster.directory().LookupOrPlace(ActorId{type, key}, kClientSiloId) ==
        silo) {
      return key;
    }
  }
}

/// Four sources on silo 0 each stream tells to one checker on silo 1 (4
/// workers per silo), and the client streams calls to the same checker and
/// checks the order of the replies. Every stream must arrive in send order:
/// across the silo 0 -> 1 link (drained on silo 1's workers), the client ->
/// silo 1 link, and the silo 1 -> client reply link (drained on the client's
/// workers).
void RunCrossSiloStreams(Micros latency_us, Micros jitter_us) {
  RegisterStreamWireMethods();
  // Declared before the cluster so they outlive every reply continuation.
  std::mutex mu;
  std::vector<int64_t> replies;
  RuntimeOptions options;
  options.num_silos = 2;
  options.workers_per_silo = 4;
  options.network.client_latency_us = latency_us;
  options.network.silo_latency_us = latency_us;
  options.network.jitter_us = jitter_us;
  options.wire.require_wire = true;
  RealClusterHandle handle(options);
  handle->RegisterActorType<StreamChecker>();
  handle->RegisterActorType<StreamSource>();
  Cluster& cluster = handle.cluster();
  const std::string checker_key =
      KeyPlacedOn(cluster, StreamChecker::kTypeName, "checker", 1);
  auto checker = handle->Ref<StreamChecker>(checker_key);

  constexpr int kSources = 4;
  constexpr int64_t kPerSource = 500;
  for (int s = 0; s < kSources; ++s) {
    std::string key = KeyPlacedOn(cluster, StreamSource::kTypeName,
                                  "src" + std::to_string(s) + "_", 0);
    handle->Ref<StreamSource>(key).Tell(&StreamSource::Run, checker_key,
                                        int64_t{s}, kPerSource);
  }
  constexpr int64_t kClientStream = 99;
  constexpr int64_t kCalls = 500;
  for (int64_t i = 0; i < kCalls; ++i) {
    checker.Call(&StreamChecker::Push, kClientStream, i)
        .OnReady([&mu, &replies](Result<int64_t>&& r) {
          std::lock_guard<std::mutex> lock(mu);
          replies.push_back(r.ok() ? r.value() : -1);
        });
  }
  ASSERT_TRUE(WaitFor([&] {
    return checker.Call(&StreamChecker::Total).Get().value() ==
           kSources * kPerSource + kCalls;
  }));
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return static_cast<int64_t>(replies.size()) == kCalls;
  }));
  EXPECT_EQ(checker.Call(&StreamChecker::Violations).Get().value(), 0);
  {
    std::lock_guard<std::mutex> lock(mu);
    for (int64_t i = 0; i < kCalls; ++i) {
      ASSERT_EQ(replies[i], i) << "replies completed out of order";
    }
  }
  EXPECT_EQ(cluster.metrics().GetCounter("wire.closure_fallbacks")->value(),
            0);
  EXPECT_GT(cluster.metrics().GetCounter("wire.requests")->value(),
            kSources * kPerSource);
}

TEST(Scheduling, CrossSiloStreamsStayFifoOnWorkerDrainedLinks) {
  RunCrossSiloStreams(/*latency_us=*/0, /*jitter_us=*/0);
}

TEST(Scheduling, CrossSiloStreamsStayFifoWithModelledLatency) {
  // Arrivals in the future arm the timer, and jitter would reorder a link
  // but for the per-link FIFO stamp: the same order must hold.
  RunCrossSiloStreams(/*latency_us=*/300, /*jitter_us=*/200);
}

}  // namespace
}  // namespace aodb
