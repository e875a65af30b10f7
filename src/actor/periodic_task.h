// The runtime's one periodic loop: actor timers, reminders, the idle
// scanner, the metrics sampler, the hot-actor controller and the
// membership agents all tick through PeriodicTask.

#ifndef AODB_ACTOR_PERIODIC_TASK_H_
#define AODB_ACTOR_PERIODIC_TASK_H_

#include <atomic>
#include <functional>
#include <memory>
#include <utility>

#include "actor/executor.h"

namespace aodb {

/// Handle on a loop that runs a body every period on an executor's timer
/// events (Executor::PostAfter). Each tick checks the loop's atomic cancel
/// flag, runs the body, then arms the next tick, in that order, so events
/// under the simulator keep their order. The handle itself is not
/// thread-safe (its owner guards it); Cancel may be called from any
/// thread, including from inside the body, and the next tick then runs
/// nothing and arms nothing. Destroying the handle cancels the loop.
class PeriodicTask {
 public:
  PeriodicTask() = default;
  PeriodicTask(PeriodicTask&&) noexcept = default;
  PeriodicTask& operator=(PeriodicTask&&) = delete;
  ~PeriodicTask() { Cancel(); }

  /// Cancels the loop this handle runs, if any, then runs `body` every
  /// `period_us` on `exec`, the first time one period from now.
  void Start(Executor* exec, Micros period_us, std::function<void()> body) {
    Cancel();
    loop_ = std::make_shared<Loop>(exec, period_us, std::move(body));
    Loop::Arm(loop_);
  }

  void Cancel() {
    if (loop_) loop_->cancelled.store(true, std::memory_order_release);
    loop_.reset();
  }

 private:
  struct Loop {
    Loop(Executor* e, Micros p, std::function<void()> b)
        : exec(e), period_us(p), body(std::move(b)) {}

    /// The pending tick owns the loop, so a cancelled loop is freed once
    /// its last tick has run.
    static void Arm(std::shared_ptr<Loop> loop) {
      Executor* exec = loop->exec;
      Micros period_us = loop->period_us;
      exec->PostAfter(period_us, [loop = std::move(loop)]() mutable {
        if (loop->cancelled.load(std::memory_order_acquire)) return;
        loop->body();
        Arm(std::move(loop));
      });
    }

    Executor* const exec;
    const Micros period_us;
    const std::function<void()> body;
    std::atomic<bool> cancelled{false};
  };

  std::shared_ptr<Loop> loop_;
};

}  // namespace aodb

#endif  // AODB_ACTOR_PERIODIC_TASK_H_
