// TimedStateStorage: the benchmark's timing wrapper around the real state
// storage stack (KvStateStorage over FileKvStore). It measures each state
// read and write from outside the runtime, and inside a sampled trace it
// records a "storage" span so the traced run can attribute request time to
// storage.

#ifndef AODB_BENCH_PLATFORM_TIMED_STORAGE_H_
#define AODB_BENCH_PLATFORM_TIMED_STORAGE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "actor/trace.h"
#include "common/clock.h"
#include "storage/state_storage.h"

namespace aodb {
namespace platform_bench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class TimedStateStorage final : public StateStorage {
 public:
  /// Times calls into `inner`, which it does not own. `tracer` receives the
  /// storage spans of sampled traces.
  TimedStateStorage(StateStorage* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  /// Per-call durations (ns) are kept only while recording is on; counts
  /// and bytes are always kept.
  void SetRecording(bool on) { recording_.store(on); }

  Future<Status> Write(const std::string& grain_key, std::string bytes,
                       Executor* exec) override {
    int64_t size = static_cast<int64_t>(bytes.size());
    int64_t start = NowNs();
    Future<Status> out = inner_->Write(grain_key, std::move(bytes), exec);
    int64_t end = NowNs();
    writes_.fetch_add(1, std::memory_order_relaxed);
    write_bytes_.fetch_add(size, std::memory_order_relaxed);
    Note(&write_ns_, start, end, "write");
    return out;
  }

  Future<std::string> Read(const std::string& grain_key,
                           Executor* exec) override {
    int64_t start = NowNs();
    Future<std::string> out = inner_->Read(grain_key, exec);
    int64_t end = NowNs();
    reads_.fetch_add(1, std::memory_order_relaxed);
    Note(&read_ns_, start, end, "read");
    return out;
  }

  Future<Status> Clear(const std::string& grain_key, Executor* exec) override {
    return inner_->Clear(grain_key, exec);
  }

  int64_t writes() const { return writes_.load(); }
  int64_t reads() const { return reads_.load(); }
  int64_t write_bytes() const { return write_bytes_.load(); }

  /// Durations recorded so far, in nanoseconds.
  std::vector<int64_t> WriteNs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return write_ns_;
  }
  std::vector<int64_t> ReadNs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return read_ns_;
  }

 private:
  void Note(std::vector<int64_t>* samples, int64_t start_ns, int64_t end_ns,
            const char* name) {
    if (recording_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(mu_);
      samples->push_back(end_ns - start_ns);
    }
    // Both clocks count from the steady clock's epoch, so storage spans line
    // up with the runtime's turn spans.
    const TraceContext& ctx = CurrentTraceContext();
    if (ctx.sampled) {
      SpanRecord rec;
      rec.trace_id = ctx.trace_id;
      rec.span_id = tracer_->NewSpanId();
      rec.parent_span_id = ctx.span_id;
      rec.name = name;
      rec.kind = "storage";
      rec.start_us = start_ns / 1000;
      rec.end_us = (end_ns + 999) / 1000;
      tracer_->Record(std::move(rec));
    }
  }

  StateStorage* const inner_;
  Tracer* const tracer_;
  std::atomic<bool> recording_{false};
  std::atomic<int64_t> writes_{0};
  std::atomic<int64_t> reads_{0};
  std::atomic<int64_t> write_bytes_{0};
  mutable std::mutex mu_;
  std::vector<int64_t> write_ns_;
  std::vector<int64_t> read_ns_;
};

}  // namespace platform_bench
}  // namespace aodb

#endif  // AODB_BENCH_PLATFORM_TIMED_STORAGE_H_
