// Fixed-capacity lossy record sink, kept one per node by the tracer (spans)
// and the flight recorder (events). Writers claim a slot with a relaxed
// fetch_add cursor and take a per-slot atomic try-lock before touching the
// record, so concurrent writers that wrap onto the same slot never race:
// the loser drops its record (the owner counts drops). Readers (Collect)
// take the same per-slot lock, so a dump is safe while the runtime is hot.
// No mutex is ever taken, so the sinks stay on in production and under
// TSan.

#ifndef AODB_ACTOR_LOSSY_RING_H_
#define AODB_ACTOR_LOSSY_RING_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "actor/actor_id.h"

namespace aodb {

template <typename T>
class LossyRing {
 public:
  /// Holds the newest `capacity` records, rounded up to a power of two (at
  /// least 8).
  explicit LossyRing(size_t capacity)
      : mask_(std::bit_ceil(std::max<size_t>(capacity, 8)) - 1),
        slots_(new Slot[mask_ + 1]) {}

  LossyRing(const LossyRing&) = delete;
  LossyRing& operator=(const LossyRing&) = delete;

  /// Attempts to store the record; returns false if the slot was contended
  /// (record dropped).
  bool Push(T rec) {
    Slot& slot =
        slots_[cursor_.fetch_add(1, std::memory_order_relaxed) & mask_];
    if (!slot.TryLock()) return false;  // Another writer or a reader.
    slot.rec = std::move(rec);
    slot.used = true;
    slot.busy.store(false, std::memory_order_release);
    return true;
  }

  /// Appends every stored record to `out` (unordered; at most `capacity`
  /// newest records survive wrap-around).
  void Collect(std::vector<T>* out) const {
    for (size_t i = 0; i <= mask_; ++i) {
      Slot& slot = slots_[i];
      if (!slot.TryLock()) continue;  // A writer is mid-store; skip it.
      if (slot.used) out->push_back(slot.rec);
      slot.busy.store(false, std::memory_order_release);
    }
  }

 private:
  struct Slot {
    bool TryLock() {
      bool expected = false;
      return busy.compare_exchange_strong(expected, true,
                                          std::memory_order_acquire);
    }

    std::atomic<bool> busy{false};
    bool used = false;
    T rec;
  };

  const size_t mask_;
  std::atomic<uint64_t> cursor_{0};
  std::unique_ptr<Slot[]> slots_;
};

/// Index of a node's ring in a per-node ring set: silos 0..num_silos-1 own
/// their ring; the client node (and any unknown id) shares the last one.
inline size_t NodeRingIndex(SiloId silo, int num_silos) {
  return silo >= 0 && silo < num_silos ? static_cast<size_t>(silo)
                                       : static_cast<size_t>(num_silos);
}

}  // namespace aodb

#endif  // AODB_ACTOR_LOSSY_RING_H_
