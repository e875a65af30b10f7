// Datacenter network model: computes the one-way delay of a message between
// nodes (silos or the client). Used in both modes — in real mode the delay
// is realized by the receiving Link (actor/link.h), in simulation by
// virtual-time events.

#ifndef AODB_ACTOR_NETWORK_H_
#define AODB_ACTOR_NETWORK_H_

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "actor/actor_id.h"
#include "actor/runtime_options.h"
#include "common/rng.h"

namespace aodb {

/// Thread-safe latency model. Local (same-silo) messages have zero network
/// delay; remote messages pay base latency + transfer time + jitter.
/// Delivery is FIFO per (from, to) channel, like messages multiplexed over
/// one TCP connection: jitter never reorders messages between the same pair
/// of nodes.
class NetworkModel {
 public:
  NetworkModel(const NetworkOptions& options, uint64_t seed)
      : options_(options), jitter_seed_(seed) {}

  /// Raw one-way delay in microseconds for a message of `bytes` from node
  /// `from` to node `to` (no FIFO clamping). Either may be kClientSiloId.
  Micros Delay(SiloId from, SiloId to, int64_t bytes) {
    if (from == to) return 0;
    Micros base = (from == kClientSiloId || to == kClientSiloId)
                      ? options_.client_latency_us
                      : options_.silo_latency_us;
    Micros transfer = static_cast<Micros>(
        static_cast<double>(bytes) / options_.bytes_per_us);
    return base + transfer + NextJitter();
  }

  /// Absolute arrival time of a message sent at `now`, clamped strictly
  /// increasing per (from, to) channel so delivery is FIFO regardless of
  /// jitter: the due time for Executor::PostAt or Link::Push.
  Micros FifoArrival(SiloId from, SiloId to, int64_t bytes, Micros now) {
    if (from == to) return now;
    Micros arrival = now + Delay(from, to, bytes);
    std::lock_guard<std::mutex> lock(fifo_mu_);
    Micros& last = last_arrival_[Channel(from, to)];
    if (arrival <= last) arrival = last + 1;
    last = arrival;
    return arrival;
  }

  /// Severs (or heals) the directed link from -> to. Partitions are
  /// asymmetric: severing A -> B leaves B -> A intact, modeling one-way
  /// reachability loss (a misconfigured route, an overloaded NIC queue).
  /// The cluster and the membership prober consult Partitioned() before
  /// putting anything on a remote link; a severed link silently eats
  /// traffic the way a black-holing route does.
  void SetPartitioned(SiloId from, SiloId to, bool severed) {
    std::lock_guard<std::mutex> lock(part_mu_);
    if (severed) {
      if (severed_.insert(Channel(from, to)).second) {
        partition_count_.fetch_add(1, std::memory_order_release);
      }
    } else if (severed_.erase(Channel(from, to)) > 0) {
      partition_count_.fetch_sub(1, std::memory_order_release);
    }
  }

  /// True if the directed link from -> to is currently severed. Lock-free
  /// when no partition is active (the common case on the send hot path).
  bool Partitioned(SiloId from, SiloId to) const {
    if (partition_count_.load(std::memory_order_acquire) == 0) return false;
    if (from == to) return false;
    std::lock_guard<std::mutex> lock(part_mu_);
    return severed_.count(Channel(from, to)) > 0;
  }

 private:
  static uint64_t Channel(SiloId from, SiloId to) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
           static_cast<uint32_t>(to);
  }

  /// Per-message jitter derived by hashing a relaxed atomic sequence number
  /// (one SplitMix64 step), so the hot send path takes only the FIFO lock —
  /// not a second mutex around a shared RNG. Deterministic under the
  /// single-threaded simulator.
  Micros NextJitter() {
    if (options_.jitter_us <= 0) return 0;
    uint64_t n = jitter_seq_.fetch_add(1, std::memory_order_relaxed);
    return static_cast<Micros>(Rng(jitter_seed_ + n).NextU64() %
                               static_cast<uint64_t>(options_.jitter_us));
  }

  const NetworkOptions options_;
  const uint64_t jitter_seed_;
  std::atomic<uint64_t> jitter_seq_{0};
  std::mutex fifo_mu_;
  std::unordered_map<uint64_t, Micros> last_arrival_;
  /// Directed severed links (Channel-packed). The atomic count lets the
  /// un-partitioned hot path skip the lock entirely.
  std::atomic<int> partition_count_{0};
  mutable std::mutex part_mu_;
  std::unordered_set<uint64_t> severed_;
};

}  // namespace aodb

#endif  // AODB_ACTOR_NETWORK_H_
