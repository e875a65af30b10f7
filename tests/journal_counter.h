// Test helpers for PersistentActor's state journal: a durable counter with
// a journaled state, and a storage wrapper that counts snapshot and
// journal-record traffic apart. Each AddDurable is one signed-varint record
// of its delta. The state carries a fixed ballast, so that its snapshot
// (~262 bytes) has room for ~32 one-byte records under the journal's 1/8
// bound.

#ifndef AODB_TESTS_JOURNAL_COUNTER_H_
#define AODB_TESTS_JOURNAL_COUNTER_H_

#include <string>

#include "storage/persistent_actor.h"
#include "storage/state_storage.h"
#include "wire_methods.h"

namespace aodb {

struct JournalCounterState {
  int64_t value = 0;
  std::string ballast = std::string(256, '.');

  void Encode(BufWriter* w) const {
    w->PutSigned(value);
    w->PutString(ballast);
  }
  Status Decode(BufReader* r) {
    AODB_RETURN_NOT_OK(r->GetSigned(&value));
    return r->GetString(&ballast);
  }
  Status ApplyDelta(BufReader* r) {
    int64_t d = 0;
    AODB_RETURN_NOT_OK(r->GetSigned(&d));
    if (!r->AtEnd()) return Status::Corruption("trailing bytes in delta");
    value += d;
    return Status::OK();
  }
};

/// Persisted on deactivation, and journaled by AddDurable.
class JournalCounter : public PersistentActor<JournalCounterState> {
 public:
  static constexpr char kTypeName[] = "test.JournalCounter";

  /// Adds `d`; completes once the add is durable.
  Future<Status> AddDurable(int64_t d) {
    state().value += d;
    return AppendDeltaAsync([d](BufWriter* w) { w->PutSigned(d); });
  }
  /// Adds `d` without a write: only a dirty mark, flushed on deactivation.
  int64_t Add(int64_t d) {
    state().value += d;
    MarkDirty();
    return state().value;
  }
  int64_t Value() { return state().value; }
};

inline void RegisterJournalCounterWire() {
  RegisterWire<JournalCounter>(&JournalCounter::AddDurable, "AddDurable",
                               &JournalCounter::Add, "Add",
                               &JournalCounter::Value, "Value");
}

/// Storage key of the counter `key`'s journal record `seq`.
inline std::string JournalRecordKey(const std::string& key, int64_t seq) {
  return std::string(JournalCounter::kTypeName) + "/" + key + "#d" +
         std::to_string(seq);
}

/// Forwards every call to a switchable target, counting snapshot and
/// journal-record traffic apart.
class JournalProbeStorage final : public StateStorage {
 public:
  explicit JournalProbeStorage(StateStorage* target) : target_(target) {}

  void set_target(StateStorage* target) { target_ = target; }

  Future<Status> Write(const std::string& grain_key, std::string bytes,
                       Executor* exec) override {
    ++(IsRecord(grain_key) ? record_writes : snapshot_writes);
    return target_->Write(grain_key, std::move(bytes), exec);
  }
  Future<std::string> Read(const std::string& grain_key,
                           Executor* exec) override {
    ++(IsRecord(grain_key) ? record_reads : snapshot_reads);
    return target_->Read(grain_key, exec);
  }
  Future<Status> Clear(const std::string& grain_key,
                       Executor* exec) override {
    return target_->Clear(grain_key, exec);
  }

  int64_t snapshot_writes = 0;
  int64_t record_writes = 0;
  int64_t snapshot_reads = 0;
  int64_t record_reads = 0;

 private:
  static bool IsRecord(const std::string& key) {
    return key.find("#d") != std::string::npos;
  }
  StateStorage* target_;
};

}  // namespace aodb

#endif  // AODB_TESTS_JOURNAL_COUNTER_H_
