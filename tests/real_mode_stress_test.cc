// Stress tests of the runtime on real thread pools: multi-threaded
// clients, turn-based isolation under contention, persistence with real
// concurrency, and clean shutdown with work in flight. These are the tests
// that would catch data races the single-threaded simulator cannot.

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "actor/actor_ref.h"
#include "actor/runtime.h"
#include "storage/mem_kv.h"
#include "storage/persistent_actor.h"
#include "wire_methods.h"

namespace aodb {
namespace {

/// Counter whose Add is deliberately non-atomic: correct results are only
/// possible if the runtime really serializes turns per activation.
class RacyCounter : public ActorBase {
 public:
  static constexpr char kTypeName[] = "stress.Counter";
  int64_t Add() {
    int64_t v = value_;        // Read...
    std::this_thread::yield();  // ...invite interleaving...
    value_ = v + 1;            // ...write.
    return value_;
  }
  int64_t Value() { return value_; }

 private:
  int64_t value_ = 0;
};

RuntimeOptions StressOptions() {
  RegisterWire<RacyCounter>(&RacyCounter::Add, "Add", &RacyCounter::Value,
                            "Value");
  RuntimeOptions o;
  o.num_silos = 2;
  o.workers_per_silo = 2;
  o.network.client_latency_us = 10;
  o.network.silo_latency_us = 10;
  o.network.jitter_us = 5;
  return o;
}

TEST(RealModeStressTest, TurnBasedExecutionSerializesRacyUpdates) {
  RealClusterHandle handle(StressOptions());
  handle->RegisterActorType<RacyCounter>();
  constexpr int kClients = 4;
  constexpr int kPerClient = 250;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&handle] {
      auto ref = handle->Ref<RacyCounter>("shared");
      for (int i = 0; i < kPerClient; ++i) {
        ref.Tell(&RacyCounter::Add);
      }
    });
  }
  for (auto& t : clients) t.join();
  auto ref = handle->Ref<RacyCounter>("shared");
  // Wait until all tells drained.
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (ref.Call(&RacyCounter::Value).Get().value() ==
        kClients * kPerClient) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ref.Call(&RacyCounter::Value).Get().value(),
            kClients * kPerClient)
      << "lost updates imply two turns ran concurrently";
}

TEST(RealModeStressTest, ManyActorsManyThreadsNoLostCalls) {
  RealClusterHandle handle(StressOptions());
  handle->RegisterActorType<RacyCounter>();
  constexpr int kActors = 32;
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 200;
  std::atomic<int64_t> ok_calls{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&handle, &ok_calls, t] {
      Rng rng(t + 1);
      std::vector<Future<int64_t>> futures;
      for (int i = 0; i < kCallsPerThread; ++i) {
        int a = static_cast<int>(rng.NextBelow(kActors));
        futures.push_back(handle->Ref<RacyCounter>("a" + std::to_string(a))
                              .Call(&RacyCounter::Add));
      }
      for (auto& f : futures) {
        if (f.Get().ok()) ok_calls.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_calls.load(), kThreads * kCallsPerThread);
  // Total across actors must equal the number of calls.
  int64_t total = 0;
  for (int a = 0; a < kActors; ++a) {
    total += handle->Ref<RacyCounter>("a" + std::to_string(a))
                 .Call(&RacyCounter::Value)
                 .Get()
                 .value();
  }
  EXPECT_EQ(total, kThreads * kCallsPerThread);
}

struct StressState {
  int64_t value = 0;
  void Encode(BufWriter* w) const { w->PutSigned(value); }
  Status Decode(BufReader* r) { return r->GetSigned(&value); }
};

class DurableStressCounter : public PersistentActor<StressState> {
 public:
  static constexpr char kTypeName[] = "stress.Durable";
  DurableStressCounter()
      : PersistentActor<StressState>(PersistenceOptions{
            PersistPolicy::kWindowed, 10, kMicrosPerSecond, "default"}) {}
  int64_t Add() {
    ++state().value;
    MarkDirty();
    return state().value;
  }
  int64_t Value() { return state().value; }
};

TEST(RealModeStressTest, WindowedPersistenceUnderRealConcurrency) {
  MemKvStore backing;
  auto storage = std::make_shared<KvStateStorage>(&backing);
  RegisterWire<DurableStressCounter>(&DurableStressCounter::Add, "Add",
                                     &DurableStressCounter::Value, "Value");
  RealClusterHandle handle(StressOptions());
  handle->RegisterStateStorage("default", storage);
  handle->RegisterActorType<DurableStressCounter>();
  auto ref = handle->Ref<DurableStressCounter>("d");
  std::vector<Future<int64_t>> futures;
  for (int i = 0; i < 500; ++i) futures.push_back(ref.Call(&DurableStressCounter::Add));
  for (auto& f : futures) ASSERT_TRUE(f.Get().ok());
  EXPECT_EQ(ref.Call(&DurableStressCounter::Value).Get().value(), 500);
  // The windowed policy must have produced storage snapshots while running.
  EXPECT_GE(backing.Count().value(), 1);
  // Final flush on shutdown keeps the latest value durable.
  auto flushed = handle->DeactivateAll();
  ASSERT_TRUE(flushed.GetFor(5 * kMicrosPerSecond).ok());
  auto stored = backing.Get("grain/stress.Durable/d");
  ASSERT_TRUE(stored.ok());
  BufReader r(stored.value());
  StressState st;
  ASSERT_TRUE(st.Decode(&r).ok());
  EXPECT_EQ(st.value, 500);
}

TEST(RealModeStressTest, ShutdownWithWorkInFlightDoesNotCrash) {
  for (int round = 0; round < 5; ++round) {
    RealClusterHandle handle(StressOptions());
    handle->RegisterActorType<RacyCounter>();
    for (int a = 0; a < 8; ++a) {
      auto ref = handle->Ref<RacyCounter>("x" + std::to_string(a));
      for (int i = 0; i < 100; ++i) ref.Tell(&RacyCounter::Add);
    }
    // Destroy the handle immediately: pending work must not crash or hang.
    handle.Shutdown();
  }
  SUCCEED();
}

TEST(RealModeStressTest, CrossSiloCallChainsUnderLoad) {
  // Relay -> Counter chains spanning silos, driven from several threads.
  class Relay : public ActorBase {
   public:
    Future<int64_t> Through(std::string target) {
      return ctx().Ref<RacyCounter>(target).Call(&RacyCounter::Add);
    }
  };
  RegisterWireAs("stress.Relay", &Relay::Through, "Through");
  RealClusterHandle handle(StressOptions());
  handle->RegisterActorType<RacyCounter>();
  handle->RegisterActorType(
      "stress.Relay", [](const ActorId&) { return std::make_unique<Relay>(); });
  std::atomic<int64_t> completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&handle, &completed, t] {
      for (int i = 0; i < 100; ++i) {
        auto relay = handle->RefAs<Relay>("stress.Relay",
                                          "r" + std::to_string(i % 4));
        auto r = relay.Call(&Relay::Through,
                            std::string("end" + std::to_string(t)));
        if (r.Get().ok()) completed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completed.load(), 300);
  int64_t total = 0;
  for (int t = 0; t < 3; ++t) {
    total += handle->Ref<RacyCounter>("end" + std::to_string(t))
                 .Call(&RacyCounter::Value)
                 .Get()
                 .value();
  }
  EXPECT_EQ(total, 300);
}

}  // namespace
}  // namespace aodb
