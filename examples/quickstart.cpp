// Quickstart: define a virtual actor, run a real (thread-pool) cluster,
// and exchange messages with it.
//
//   $ ./build/examples/quickstart
//
// Demonstrates the core API surface: ActorBase, kTypeName, Cluster
// registration, ActorRef::Call / Tell, futures, and virtual-actor
// perpetuity (actors are addressed by name and activated on demand).

#include <cstdio>
#include <cstdlib>

#include "actor/actor_ref.h"
#include "actor/method_registry.h"
#include "actor/runtime.h"

using namespace aodb;

/// A device shadow: the latest reported measurement of one IoT device.
/// Virtual actors are perfect device shadows — always addressable, living
/// in memory only while traffic flows.
class DeviceShadow : public ActorBase {
 public:
  static constexpr char kTypeName[] = "DeviceShadow";

  /// Devices report asynchronously (fire-and-forget from the gateway).
  void Report(double value) {
    last_value_ = value;
    ++reports_;
  }

  /// Dashboards read the shadow (request/response).
  double LastValue() { return last_value_; }
  int64_t Reports() { return reports_; }

  /// Actors can introspect their identity and environment.
  std::string Describe() {
    return ctx().self().ToString() + " on silo " +
           std::to_string(ctx().silo());
  }

 private:
  double last_value_ = 0;
  int64_t reports_ = 0;
};

/// Waits (at most 5 s) for a call's result; exits non-zero if it failed.
template <typename T>
T Await(const Future<T>& f, const char* what) {
  Result<T> r = f.GetFor(5 * kMicrosPerSecond);
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

int main() {
  // A 2-silo cluster on real thread pools (2 worker threads per silo).
  RuntimeOptions options;
  options.num_silos = 2;
  options.workers_per_silo = 2;
  RealClusterHandle handle(options);
  handle->RegisterActorType<DeviceShadow>();

  // A call from outside the silo (or between silos) travels as a serialized
  // frame, so each method it invokes is registered for the wire.
  MethodRegistry& methods = MethodRegistry::Global();
  for (Status st :
       {methods.Register(DeviceShadow::kTypeName, &DeviceShadow::Report,
                         "Report"),
        methods.Register(DeviceShadow::kTypeName, &DeviceShadow::LastValue,
                         "LastValue"),
        methods.Register(DeviceShadow::kTypeName, &DeviceShadow::Reports,
                         "Reports"),
        methods.Register(DeviceShadow::kTypeName, &DeviceShadow::Describe,
                         "Describe")}) {
    if (!st.ok()) {
      std::fprintf(stderr, "registration failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  // Virtual actors need no explicit creation: referencing "thermometer-1"
  // activates it on first message.
  auto device = handle->Ref<DeviceShadow>("thermometer-1");

  // Fire-and-forget reports, like an IoT gateway would send.
  for (int i = 1; i <= 10; ++i) {
    device.Tell(&DeviceShadow::Report, 20.0 + 0.1 * i);
  }

  // Request/response: Call returns a Future.
  // (Blocking waits are fine here — we are an external client, not an
  // actor.) Tells are asynchronous, so poll until all ten have applied.
  int64_t reports = 0;
  for (int poll = 0; poll < 1000 && reports < 10; ++poll) {
    reports = Await(device.Call(&DeviceShadow::Reports), "Reports");
  }
  if (reports < 10) {
    std::fprintf(stderr, "only %lld of 10 reports applied\n",
                 static_cast<long long>(reports));
    return 1;
  }
  double value = Await(device.Call(&DeviceShadow::LastValue), "LastValue");
  std::string where = Await(device.Call(&DeviceShadow::Describe), "Describe");
  std::printf("latest value : %.1f\n", value);
  std::printf("activation   : %s\n", where.c_str());

  // A different key is a different actor with its own state.
  auto other = handle->Ref<DeviceShadow>("thermometer-2");
  std::printf("other device : %lld reports (fresh actor)\n",
              static_cast<long long>(
                  Await(other.Call(&DeviceShadow::Reports), "Reports")));

  std::printf("activations  : %zu\n", handle->TotalActivations());
  std::printf("OK\n");
  return 0;
}
