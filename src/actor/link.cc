#include "actor/link.h"

#include <iterator>

namespace aodb {

namespace {
/// Messages one drain task runs before it re-posts itself, so a busy link
/// cannot hold a worker against the receiver's other queued work (the bound
/// RuntimeOptions::max_turn_batch puts on a hot actor, for the same reason).
constexpr int kDrainBatch = 16;
}  // namespace

void Link::Push(Micros due, std::function<void()> fn) {
  bool drain = false;
  Micros arm_at = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Arrival times are stamped FIFO per link, so a message almost always
    // goes to the back. It lands further forward only when a concurrent
    // sender's earlier stamp is pushed late, or when a reorder fault holds a
    // message back on purpose.
    auto pos = queue_.end();
    while (pos != queue_.begin() && std::prev(pos)->due > due) --pos;
    queue_.insert(pos, InFlight{due, std::move(fn)});
    if (!draining_) drain = ScheduleLocked(&arm_at);
  }
  Kick(drain, arm_at);
}

bool Link::ScheduleLocked(Micros* arm_at) {
  if (queue_.empty()) return false;
  Micros head = queue_.front().due;
  if (head <= dest_->clock()->Now()) {
    draining_ = true;
    return true;
  }
  if (armed_at_ == 0 || head < armed_at_) {
    armed_at_ = head;
    *arm_at = head;
  }
  return false;
}

void Link::Kick(bool drain, Micros arm_at) {
  if (drain) {
    dest_->Post(Task{[this] { Drain(); }, 0});
  } else if (arm_at > 0) {
    dest_->PostAt(arm_at, [this, arm_at] { OnTimer(arm_at); });
  }
}

void Link::OnTimer(Micros due) {
  bool drain = false;
  Micros arm_at = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A timer superseded by an earlier one still fires; it finds nothing
    // due, or a drain already running, and does no harm.
    if (armed_at_ == due) armed_at_ = 0;
    if (!draining_) drain = ScheduleLocked(&arm_at);
  }
  Kick(drain, arm_at);
}

void Link::Drain() {
  for (int n = 0;; ++n) {
    std::function<void()> fn;
    bool drain = false;
    Micros arm_at = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (n < kDrainBatch && !queue_.empty() &&
          queue_.front().due <= dest_->clock()->Now()) {
        fn = std::move(queue_.front().fn);
        queue_.pop_front();
      } else {
        // Nothing due, or the batch is spent: release the claim and let
        // ScheduleLocked re-post (still due) or arm the timer (in flight).
        draining_ = false;
        drain = ScheduleLocked(&arm_at);
      }
    }
    if (!fn) {
      Kick(drain, arm_at);
      return;
    }
    fn();
  }
}

}  // namespace aodb
