// Real-mode executor: a fixed pool of worker threads with per-worker run
// queues, a LIFO slot for cache-hot continuations, and work stealing, plus a
// dedicated timer thread for delayed callbacks.
//
// Scalability notes (the fig6/fig7 hot path runs through Post):
//  * No global run-queue lock: a post from a worker thread touches only that
//    worker's own queue; an external post round-robins across workers. Two
//    threads only contend when one steals from the other.
//  * No condvar signal per Post: a post only notifies when some worker is
//    actually parked (num_idle_ > 0). At saturation — the regime throughput
//    benchmarks measure — posts are silent.
//  * No stats lock: counters live in per-worker shards (relaxed atomics)
//    and are merged by Stats().

#ifndef AODB_ACTOR_THREAD_POOL_H_
#define AODB_ACTOR_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "actor/executor.h"

namespace aodb {

/// Work-stealing thread-pool executor over the wall clock. One instance per
/// silo in real mode (its thread count models the silo's vCPUs).
class ThreadPoolExecutor final : public Executor {
 public:
  /// Starts `num_threads` workers plus one timer thread.
  explicit ThreadPoolExecutor(int num_threads);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  void Post(Task task) override;
  void PostAfter(Micros delay_us, std::function<void()> fn) override;
  void PostAt(Micros due, std::function<void()> fn) override;
  Clock* clock() override { return RealClock::Instance(); }
  int workers() const override { return static_cast<int>(threads_.size()); }
  /// Merged view of the per-worker stat shards.
  ExecutorStats Stats() const override;
  bool MeasuresTaskCost() const override { return true; }

  /// Stops accepting work and joins all threads. Pending immediate tasks are
  /// drained; pending delayed tasks are dropped. Idempotent.
  void Shutdown();

 private:
  struct Timed {
    Micros due;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Timed& other) const {
      return due != other.due ? due > other.due : seq > other.seq;
    }
  };

  /// One worker's scheduling state and stat shard. Cache-line aligned so
  /// shards of neighboring workers do not false-share.
  struct alignas(64) Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> queue;  ///< Guarded by mu.
    Task lifo;               ///< Guarded by mu. Most-recent local post.
    bool has_lifo = false;   ///< Guarded by mu.
    bool notified = false;   ///< Guarded by mu. Unpark token.
    /// queue.size() + has_lifo, maintained alongside the guarded fields.
    /// Read without mu by stealers (victim pre-screen), by the idle
    /// protocol's cross-check, and by Stats(). Seq-cst: the post-then-check-
    /// idle / register-idle-then-check-queues handshake needs store/load
    /// ordering (see WorkerLoop).
    std::atomic<int64_t> size{0};

    // Stat shard (relaxed; merged on read).
    std::atomic<int64_t> tasks_run{0};
    std::atomic<int64_t> busy_us{0};
    std::atomic<int64_t> steals{0};
    std::atomic<int64_t> parks{0};

    // Owner-thread-only scheduling state.
    int lifo_streak = 0;  ///< Consecutive LIFO-slot pops (fairness cap).
    uint64_t rng = 0;     ///< xorshift state for steal-victim selection.
  };

  void WorkerLoop(int index);
  void TimerLoop();
  void RunTask(Worker& me, Task& task);
  /// Pops from the LIFO slot (subject to the streak cap) or the own queue.
  bool TryGetLocal(Worker& me, Task* out);
  /// Steals a batch from some other worker's queue; returns one task to run
  /// and appends the rest to the thief's queue.
  bool TrySteal(int thief, Task* out);
  /// Sum of all workers' size counters (queued, not yet started).
  int64_t TotalQueued() const;
  /// Wakes one parked worker, if any.
  void UnparkOne();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> rr_{0};        ///< Round-robin for external posts.
  std::atomic<int> num_idle_{0};       ///< Mirrors idle_stack_.size().
  std::mutex idle_mu_;
  std::vector<int> idle_stack_;        ///< Indices of parked workers.
  std::atomic<bool> shutdown_{false};

  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::priority_queue<Timed, std::vector<Timed>, std::greater<Timed>>
      timer_queue_;
  uint64_t timer_seq_ = 0;

  std::vector<std::thread> threads_;
  std::thread timer_thread_;
};

}  // namespace aodb

#endif  // AODB_ACTOR_THREAD_POOL_H_
