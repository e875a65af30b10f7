// One directed network link of a real-mode cluster: silo to silo, client to
// silo, or back. Everything the cluster ships over a link (wire request and
// reply frames) waits here, ordered by the arrival time the network model
// stamped on it, and runs on the RECEIVING executor's workers in that order:
//
//  * a message that is already due when it is pushed (every message, with
//    the network model zeroed) goes to a worker at once; the executor's
//    timer thread never sees it;
//  * a message still in flight arms the executor's timer for the earliest
//    arrival, and the timer callback only posts the drain, so decoding,
//    mailbox delivery and reply continuations run on a worker either way.
//
// At most one drain of a link runs at a time, so a link stays FIFO however
// many workers the receiver has and however they steal from each other. The
// simulator has no links: there, a delivery stays a free timed event
// (Executor::PostAt), so virtual-time results do not change.

#ifndef AODB_ACTOR_LINK_H_
#define AODB_ACTOR_LINK_H_

#include <deque>
#include <functional>
#include <mutex>

#include "actor/executor.h"

namespace aodb {

class Link {
 public:
  /// `dest` runs the link's messages and must outlive its last drain task.
  explicit Link(Executor* dest) : dest_(dest) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Queues `fn` to run on a worker of the receiving executor once `due` has
  /// passed, after every message of this link due no later than it (equal
  /// arrival times keep push order).
  void Push(Micros due, std::function<void()> fn);

 private:
  struct InFlight {
    Micros due;
    std::function<void()> fn;
  };

  /// With mu_ held and no drain running: claims the drain and returns true
  /// if the head is due; otherwise sets *arm_at to the head's arrival unless
  /// a timer armed no later already covers it.
  bool ScheduleLocked(Micros* arm_at);
  /// Posts the drain task, or arms the timer at `arm_at` (0: neither).
  void Kick(bool drain, Micros arm_at);
  void OnTimer(Micros due);
  void Drain();

  Executor* const dest_;
  std::mutex mu_;
  std::deque<InFlight> queue_;  ///< Guarded by mu_. Sorted by due.
  bool draining_ = false;       ///< Guarded by mu_. A drain is posted or running.
  Micros armed_at_ = 0;         ///< Guarded by mu_. Earliest armed timer; 0 = none.
};

}  // namespace aodb

#endif  // AODB_ACTOR_LINK_H_
