// Execution abstraction decoupling the actor runtime from its scheduling
// substrate. Two implementations exist:
//  * ThreadPoolExecutor (src/actor/thread_pool.h) — real threads, wall clock,
//    per-worker run queues with work stealing.
//  * SimExecutor (src/sim/sim_executor.h) — discrete-event simulation with
//    virtual CPU workers and virtual time, used by the figure benchmarks.

#ifndef AODB_ACTOR_EXECUTOR_H_
#define AODB_ACTOR_EXECUTOR_H_

#include <cstdint>
#include <functional>

#include "common/clock.h"
#include "common/small_function.h"

namespace aodb {

/// The callable of one schedulable unit of work. Small-buffer optimized so
/// the runtime's own task closures (actor turn dispatches, activation
/// lifecycle steps) never heap-allocate on the hot path.
using TaskFn = SmallFunction<void(), 64>;

/// A schedulable unit of actor work. `cost_us` is the CPU service time
/// charged in simulation mode (ignored — i.e., measured for real — in
/// thread-pool mode).
struct Task {
  TaskFn fn;
  Micros cost_us = 0;
};

/// Aggregate executor counters, used to report CPU utilization (the paper's
/// "80% utilization" design point) and scheduler health. Real-mode executors
/// keep these in per-worker shards and merge on read; the simulator fills in
/// only tasks_run/busy_us (it has no queues to steal from or workers to
/// park).
struct ExecutorStats {
  int64_t tasks_run = 0;
  Micros busy_us = 0;
  /// Tasks a worker took from another worker's run queue.
  int64_t steals = 0;
  /// Times a worker parked (went to sleep) for lack of work.
  int64_t parks = 0;
  /// Tasks queued but not yet started, at the moment of the snapshot.
  int64_t queue_depth = 0;
};

/// A serial-or-parallel task executor with its own clock.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Schedules a task to run as soon as a worker is free. No relative order
  /// is guaranteed between distinct tasks (work stealing and per-worker LIFO
  /// slots may start them out of post order); ordered delivery is the silo
  /// mailbox's job — per-actor turns are serialized by the activation state
  /// machine, and a sender's messages to one actor are enqueued in send
  /// order. SimExecutor, being single-threaded, still starts same-cost tasks
  /// in post order.
  virtual void Post(Task task) = 0;

  /// Schedules `fn` to run `delay_us` from now on this executor's clock.
  /// Unlike Post, the callback occupies no CPU worker (used for timers,
  /// network delivery, and storage completion events).
  virtual void PostAfter(Micros delay_us, std::function<void()> fn) = 0;

  /// Schedules `fn` at an absolute time on this executor's clock. Under the
  /// simulator the message-delivery path uses this (rather than PostAfter)
  /// so that per-channel FIFO arrival times computed by the network model
  /// are honored exactly, independent of when the sending thread gets to
  /// run; in real mode a Link (actor/link.h) uses it only to wake for a
  /// message still in flight.
  virtual void PostAt(Micros due, std::function<void()> fn) = 0;

  /// The clock that timestamps and delays on this executor refer to.
  virtual Clock* clock() = 0;

  /// Number of CPU workers (vCPUs) this executor models or owns.
  virtual int workers() const = 0;

  virtual ExecutorStats Stats() const = 0;

  /// True when this executor measures task cost for real instead of charging
  /// the declared `Task::cost_us` up front. Only then may the silo drain
  /// several mailbox envelopes inside one scheduled turn
  /// (RuntimeOptions::max_turn_batch), and only then may the cluster run
  /// cross-node deliveries as worker tasks (actor/link.h). Under the
  /// simulator either would change the figure benchmarks' virtual-time
  /// results: batched envelopes would run free of charge, and a delivery,
  /// modelled as a free network event, would occupy a virtual CPU.
  virtual bool MeasuresTaskCost() const { return false; }
};

}  // namespace aodb

#endif  // AODB_ACTOR_EXECUTOR_H_
