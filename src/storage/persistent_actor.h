// Durable virtual actors: PersistentActor<TState> mirrors Orleans' grain
// state model. State is an application struct with Encode/Decode methods;
// the actor reads its latest snapshot on activation and writes it back
// according to a configurable durability policy — the spectrum discussed in
// the paper's §5 (write per update, windowed, or only on deactivation).
//
// State reads and writes run under the shared RetryPolicy, so transient
// storage failures (throttling, injected faults, flaky backends) are healed
// transparently. Storage completion callbacks deliberately capture a shared
// PersistCore — never the actor itself — so a write still in flight when
// the hosting silo crashes (or the activation is reclaimed) completes
// harmlessly against the detached core.
//
// A state type that can also replay a mutation (ApplyDelta) may journal
// instead: AppendDeltaAsync writes one small record per mutation behind the
// last snapshot, and a load folds the records into it (see AppendDeltaAsync
// and DESIGN.md "Persistence & the state journal").

#ifndef AODB_STORAGE_PERSISTENT_ACTOR_H_
#define AODB_STORAGE_PERSISTENT_ACTOR_H_

#include <concepts>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "actor/actor.h"
#include "actor/retry_async.h"
#include "common/codec.h"
#include "common/logging.h"
#include "common/retry.h"
#include "storage/state_storage.h"

namespace aodb {

/// When actor state is written to the storage provider.
enum class PersistPolicy {
  /// Every MarkDirty() triggers a write (strongest durability, highest
  /// storage load — the paper's "200 write requests every second" case).
  kOnEveryUpdate,
  /// Write after `window_updates` dirty marks or `window_interval_us`,
  /// whichever first (the paper's recommended windowed collection).
  kWindowed,
  /// Write only when the activation is deactivated / at shutdown (the
  /// configuration used in the paper's benchmarks).
  kOnDeactivate,
};

/// Per-actor-class persistence configuration.
struct PersistenceOptions {
  PersistPolicy policy = PersistPolicy::kOnDeactivate;
  int window_updates = 100;
  Micros window_interval_us = 10 * kMicrosPerSecond;
  /// Name of the storage provider registered on the cluster. If the
  /// provider is missing the actor runs volatile: its state is never
  /// loaded or written, and nothing logs or counts that.
  std::string provider = "default";
  /// Retry policy for snapshot loads and writes (transient storage errors
  /// only; NotFound and Corruption surface immediately).
  RetryPolicy retry;
};

/// A state type that can replay one journaled mutation:
///   Status ApplyDelta(BufReader* r);
/// ApplyDelta must fail with Corruption, leaving the state untouched, on
/// bytes it did not write.
template <typename TState>
concept JournaledState = requires(TState& state, BufReader* r) {
  { state.ApplyDelta(r) } -> std::same_as<Status>;
};

/// Base class for actors with durable state.
///
/// TState requirements:
///   void Encode(BufWriter* w) const;
///   Status Decode(BufReader* r);
/// and default-constructibility (the state of a never-persisted grain).
/// A JournaledState also gets AppendDeltaAsync; its snapshots then start
/// with a journal header (the first record sequence number they do not
/// cover, and a sealed bit).
template <typename TState>
class PersistentActor : public ActorBase {
 public:
  explicit PersistentActor(PersistenceOptions options = {})
      : options_(std::move(options)),
        core_(std::make_shared<PersistCore>()) {}

  /// Loads the latest snapshot (NotFound means a fresh grain) and, for a
  /// journaled state behind an unsealed snapshot, folds in its records.
  Future<Status> OnActivate() override {
    StateStorage* ss = provider();
    if (ss == nullptr) return Future<Status>::FromValue(Status::OK());
    if (options_.policy == PersistPolicy::kWindowed) {
      ctx().SetTimer(kPersistTimerName, options_.window_interval_us);
    }
    Promise<Status> done;
    ReadAsync(ss, ctx().self().ToString())
        .OnReady([this, done](Result<std::string>&& r) {
          // Safe to touch the actor here: the activation is pinned
          // (kLoading) until OnActivate's future — completed below —
          // resolves, and crashed silos park activations instead of
          // destroying them.
          if (!r.ok()) {
            if (r.status().IsNotFound()) {
              done.SetValue(Status::OK());  // Fresh grain.
            } else {
              done.SetValue(r.status());
            }
            return;
          }
          if constexpr (kJournaled) {
            LoadJournaled(r.value(), done);
          } else {
            BufReader reader(r.value());
            done.SetValue(state_.Decode(&reader));
          }
        });
    return done.GetFuture();
  }

  /// Flushes dirty state before the activation is destroyed — and drains
  /// writes already on the wire even when the state is clean. The drain is
  /// a correctness requirement, not a courtesy: an actor turn ends when
  /// WriteStateAsync is *issued*, so an idle activation can be reclaimed
  /// (idle sweep, paging, migration) while its last write is still in
  /// flight. Writes are only serialized within one activation's core; if
  /// the successor activation loads and writes before the predecessor's
  /// write lands, the late write silently rolls the key back — an acked
  /// update lost (caught by the DST conservation checker under
  /// low-cap paging, seed 29). Holding deactivation until the queue is
  /// empty orders every successor load after every predecessor write,
  /// journal records included.
  ///
  /// The flush snapshot is sealed: the successor loads it without reading
  /// the journal. A clean activation whose snapshot has records behind it
  /// flushes a sealed snapshot too.
  Future<Status> OnDeactivate() override {
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      if (core_->dirty_count == 0 && core_->journal_bytes == 0) {
        if (!core_->write_pending) {
          return Future<Status>::FromValue(Status::OK());
        }
        // Clean state, write(s) still on the wire: hold deactivation until
        // the last one lands.
        Promise<Status> done;
        core_->drain_waiters.push_back(done);
        return done.GetFuture();
      }
    }
    // The flush snapshot queues behind every in-flight write, so its
    // completion implies the full drain.
    return WriteSnapshot(/*sealed=*/true);
  }

  /// Dispatches the internal persistence timer; application timers are
  /// forwarded to OnAppTimer.
  void OnTimer(const std::string& name) override {
    if (name == kPersistTimerName) {
      bool need_flush;
      {
        std::lock_guard<std::mutex> lock(core_->mu);
        need_flush = core_->dirty_count > 0 && !core_->write_pending;
      }
      if (need_flush) WriteStateAsync();
      return;
    }
    OnAppTimer(name);
  }

  /// Override instead of OnTimer in subclasses of PersistentActor.
  virtual void OnAppTimer(const std::string& name) { (void)name; }

 protected:
  static constexpr char kPersistTimerName[] = "__persist__";

  TState& state() { return state_; }
  const TState& state() const { return state_; }

  const PersistenceOptions& persistence_options() const { return options_; }

  /// Records a state mutation; may trigger a write per the policy. Must be
  /// called from within an actor turn (it snapshots state synchronously).
  void MarkDirty() {
    bool flush = false;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      ++core_->dirty_count;
      switch (options_.policy) {
        case PersistPolicy::kOnEveryUpdate:
          flush = !core_->write_pending;
          break;
        case PersistPolicy::kWindowed:
          flush = core_->dirty_count >= options_.window_updates &&
                  !core_->write_pending;
          break;
        case PersistPolicy::kOnDeactivate:
          break;
      }
    }
    if (flush) WriteStateAsync();
  }

  /// Serializes the current state and writes it to the provider (with
  /// retries). Call from within a turn. Returns the storage
  /// acknowledgement: OK means the snapshot is durable.
  ///
  /// Writes of one activation are serialized: a snapshot taken while an
  /// earlier write is still in flight is queued and issued after it, so a
  /// stale snapshot can never land on top of a newer one (which would
  /// silently lose acknowledged updates).
  Future<Status> WriteStateAsync() { return WriteSnapshot(/*sealed=*/false); }

  /// Makes one mutation durable as a journal record instead of a snapshot.
  /// Call from within the turn that applied the mutation to state(), in
  /// place of MarkDirty. `encode_delta(BufWriter*)` writes what ApplyDelta
  /// replays; it runs only when a record may be written, under the
  /// activation's persistence lock. Returns the storage acknowledgement,
  /// like WriteStateAsync.
  ///
  /// The record is written under "<grain>#d<seq>" in the activation's
  /// serialized write queue. A full snapshot is written instead when no
  /// unsealed snapshot of this activation stands (durable or queued)
  /// behind the record, when other dirty marks are unwritten, when a write
  /// failed since that snapshot, or when the records behind it would pass
  /// 1/kJournalFraction of its bytes. A failed write fails every record
  /// queued behind it, so the stored journal has no holes.
  template <typename EncodeDelta>
    requires JournaledState<TState>
  Future<Status> AppendDeltaAsync(const EncodeDelta& encode_delta) {
    StateStorage* ss = provider();
    if (ss == nullptr) return Future<Status>::FromValue(Status::OK());
    QueuedWrite qw;
    qw.seed = NextOpSeed();
    Future<Status> out = qw.done.GetFuture();
    std::optional<QueuedWrite> issue;
    bool record = false;
    {
      // Decided and queued under one lock: a failure completing in between
      // would otherwise leave this record behind a hole.
      std::lock_guard<std::mutex> lock(core_->mu);
      ++core_->dirty_count;
      if (core_->journal_open &&
          core_->dirty_count - core_->marks_in_flight == 1) {
        BufWriter w;
        encode_delta(&w);
        int64_t journal_bytes =
            core_->journal_bytes + static_cast<int64_t>(w.size());
        record = journal_bytes <= core_->snapshot_bytes / kJournalFraction;
        if (record) {
          core_->journal_bytes = journal_bytes;
          qw.record_seq = core_->next_seq++;
          qw.marks = 1;
          ++core_->marks_in_flight;
          qw.bytes = w.Release();
          issue = EnqueueLocked(std::move(qw));
        }
      }
    }
    if (!record) return WriteStateAsync();
    if (issue.has_value()) {
      IssueWrite(core_, ss, ctx().executor(), options_.retry,
                 ctx().self().ToString(), std::move(*issue));
    }
    return out;
  }

  /// Unflushed dirty marks (diagnostic; 0 means fully persisted).
  int64_t dirty_count() const {
    std::lock_guard<std::mutex> lock(core_->mu);
    return core_->dirty_count;
  }

  /// Storage operations retried by this activation (loads and writes).
  int64_t storage_retries() const {
    std::lock_guard<std::mutex> lock(core_->mu);
    return core_->retries;
  }

 private:
  static constexpr bool kJournaled = JournaledState<TState>;
  /// Records behind a snapshot stay under 1/kJournalFraction of its bytes,
  /// which bounds both a load's fold and the storage the journal holds.
  static constexpr int64_t kJournalFraction = 8;

  /// One serialized snapshot or journal record awaiting its turn on the
  /// wire. Its bytes are encoded inside the actor turn that created it;
  /// everything after that runs against the core only.
  struct QueuedWrite {
    std::string bytes;
    int64_t marks = 0;
    uint64_t seed = 0;
    /// Journal record sequence number; -1 for a snapshot.
    int64_t record_seq = -1;
    /// Snapshots of a journaled state: the first record they do not cover.
    int64_t journal_start = 0;
    Promise<Status> done;
  };

  /// Persistence bookkeeping shared with in-flight storage callbacks, so
  /// completions never dereference a possibly-reclaimed actor.
  struct PersistCore {
    mutable std::mutex mu;
    int64_t dirty_count = 0;
    /// Dirty marks claimed by the in-flight and queued writes.
    int64_t marks_in_flight = 0;
    bool write_pending = false;
    std::deque<QueuedWrite> queue;
    /// Deactivations waiting for the in-flight write queue to drain (see
    /// OnDeactivate). Completed OK once write_pending clears; the write's
    /// own status went to its caller.
    std::vector<Promise<Status>> drain_waiters;
    int64_t retries = 0;
    uint64_t op_seq = 0;

    // Journal (JournaledState only).
    /// Sequence number of the next record.
    int64_t next_seq = 0;
    /// Records may follow: the last snapshot queued or loaded is unsealed
    /// and no write has failed since it was queued.
    bool journal_open = false;
    /// Bytes of that snapshot, and of the records behind it.
    int64_t snapshot_bytes = 0;
    int64_t journal_bytes = 0;
    /// Records below this sequence number are superseded and cleared.
    int64_t clear_from = 0;

    void BumpRetries() {
      std::lock_guard<std::mutex> lock(mu);
      ++retries;
    }
  };

  static std::string RecordKey(const std::string& grain_key, int64_t seq) {
    return grain_key + "#d" + std::to_string(seq);
  }

  /// Encodes the current state as a snapshot and queues it. Only the
  /// deactivation flush seals one.
  Future<Status> WriteSnapshot(bool sealed) {
    StateStorage* ss = provider();
    if (ss == nullptr) {
      std::lock_guard<std::mutex> lock(core_->mu);
      core_->dirty_count = 0;
      return Future<Status>::FromValue(Status::OK());
    }
    QueuedWrite qw;
    qw.seed = NextOpSeed();
    BufWriter w;
    if constexpr (kJournaled) {
      // next_seq only moves inside turns, so it cannot change before the
      // snapshot is queued below.
      {
        std::lock_guard<std::mutex> lock(core_->mu);
        qw.journal_start = core_->next_seq;
      }
      w.PutVarint(static_cast<uint64_t>(qw.journal_start));
      w.PutBool(sealed);
    }
    state_.Encode(&w);
    qw.bytes = w.Release();
    Future<Status> out = qw.done.GetFuture();
    std::optional<QueuedWrite> issue;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      if constexpr (kJournaled) {
        core_->journal_open = !sealed;
        core_->snapshot_bytes = static_cast<int64_t>(qw.bytes.size());
        core_->journal_bytes = 0;
      }
      qw.marks = core_->dirty_count - core_->marks_in_flight;
      core_->marks_in_flight += qw.marks;
      issue = EnqueueLocked(std::move(qw));
    }
    if (issue.has_value()) {
      IssueWrite(core_, ss, ctx().executor(), options_.retry,
                 ctx().self().ToString(), std::move(*issue));
    }
    return out;
  }

  /// Queues `qw` behind the write in flight, or returns it to be issued
  /// now when there is none. Caller holds core_->mu.
  std::optional<QueuedWrite> EnqueueLocked(QueuedWrite qw) {
    if (core_->write_pending) {
      core_->queue.push_back(std::move(qw));
      return std::nullopt;
    }
    core_->write_pending = true;
    return qw;
  }

  /// Issues one write (with retries) and, on completion, drains the next
  /// queued one. Static: captures no actor state.
  static void IssueWrite(std::shared_ptr<PersistCore> core, StateStorage* ss,
                         Executor* exec, RetryPolicy policy,
                         std::string grain_key, QueuedWrite qw) {
    const int64_t record_seq = qw.record_seq;
    const int64_t journal_start = qw.journal_start;
    std::string key =
        record_seq < 0 ? grain_key : RecordKey(grain_key, record_seq);
    auto bytes = std::make_shared<std::string>(std::move(qw.bytes));
    int64_t marks = qw.marks;
    Promise<Status> done = qw.done;
    RetryAsync<Status>(
        exec, policy, qw.seed,
        [ss, key, bytes, exec] { return ss->Write(key, *bytes, exec); },
        IsTransient, [core](const Status&) { core->BumpRetries(); })
        .OnReady([core, ss, exec, policy, grain_key, key, marks, record_seq,
                  journal_start, done](Result<Status>&& r) {
          Status st = r.ok() ? r.value() : r.status();
          std::optional<QueuedWrite> next;
          std::vector<Promise<Status>> failed;
          std::vector<Promise<Status>> drained;
          int64_t clear_begin = 0;
          int64_t clear_end = 0;
          {
            std::lock_guard<std::mutex> lock(core->mu);
            core->marks_in_flight -= marks;
            if (st.ok()) {
              core->dirty_count -= marks;
              if (record_seq < 0 && journal_start > core->clear_from) {
                // A durable snapshot supersedes the records below its
                // journal start.
                clear_begin = core->clear_from;
                clear_end = journal_start;
                core->clear_from = journal_start;
              }
            } else {
              // No record may land behind a lost write: fail the records
              // queued behind it (a queued snapshot does not depend on
              // it), and write a snapshot next.
              core->journal_open = false;
              while (!core->queue.empty() &&
                     core->queue.front().record_seq >= 0) {
                core->marks_in_flight -= core->queue.front().marks;
                failed.push_back(core->queue.front().done);
                core->queue.pop_front();
              }
            }
            if (!core->queue.empty()) {
              next.emplace(std::move(core->queue.front()));
              core->queue.pop_front();
            } else {
              core->write_pending = false;
              drained.swap(core->drain_waiters);
            }
          }
          if (!st.ok()) {
            AODB_LOG(Warn, "state write for %s failed permanently: %s",
                     key.c_str(), st.ToString().c_str());
          }
          done.SetValue(st);
          for (Promise<Status>& record : failed) record.SetValue(st);
          // Best effort: a record left behind is never read again, because
          // every later load starts at or past this snapshot's start.
          for (int64_t seq = clear_begin; seq < clear_end; ++seq) {
            ss->Clear(RecordKey(grain_key, seq), exec);
          }
          for (Promise<Status>& waiter : drained) {
            waiter.SetValue(Status::OK());
          }
          if (next.has_value()) {
            IssueWrite(std::move(core), ss, exec, policy, grain_key,
                       std::move(*next));
          }
        });
  }

  /// Reads one key under the retry policy.
  Future<std::string> ReadAsync(StateStorage* ss, std::string key) {
    Executor* exec = ctx().executor();
    auto core = core_;
    return RetryAsync<std::string>(
        exec, options_.retry, NextOpSeed(),
        [ss, key = std::move(key), exec] { return ss->Read(key, exec); },
        IsTransient, [core](const Status&) { core->BumpRetries(); });
  }

  /// Decodes a journaled snapshot and, unless it is sealed, folds the
  /// records behind it. Runs while the activation is loading.
  void LoadJournaled(const std::string& bytes, Promise<Status> done) {
    BufReader reader(bytes);
    uint64_t start = 0;
    bool sealed = false;
    Status st = reader.GetVarint(&start);
    if (st.ok()) st = reader.GetBool(&sealed);
    if (st.ok()) st = state_.Decode(&reader);
    if (!st.ok()) {
      done.SetValue(st);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      core_->next_seq = static_cast<int64_t>(start);
      core_->clear_from = core_->next_seq;
      core_->journal_open = !sealed;
      core_->snapshot_bytes = static_cast<int64_t>(bytes.size());
    }
    if (sealed) {
      done.SetValue(Status::OK());
      return;
    }
    FoldRecord(static_cast<int64_t>(start), done);
  }

  /// Applies record `seq` and its successors up to the first NotFound,
  /// which ends the journal: a record is written only after every record
  /// before it was.
  void FoldRecord(int64_t seq, Promise<Status> done) {
    ReadAsync(provider(), RecordKey(ctx().self().ToString(), seq))
        .OnReady([this, seq, done](Result<std::string>&& r) {
          if (r.ok()) {
            BufReader reader(r.value());
            Status st = state_.ApplyDelta(&reader);
            if (!st.ok()) {
              done.SetValue(st);
              return;
            }
            {
              std::lock_guard<std::mutex> lock(core_->mu);
              core_->journal_bytes += static_cast<int64_t>(r.value().size());
            }
            FoldRecord(seq + 1, done);
            return;
          }
          if (!r.status().IsNotFound()) {
            done.SetValue(r.status());
            return;
          }
          {
            std::lock_guard<std::mutex> lock(core_->mu);
            core_->next_seq = seq;
          }
          done.SetValue(Status::OK());
        });
  }

  StateStorage* provider() const {
    if (!HasContext()) return nullptr;
    StateStorage* ss = ctx().storage(options_.provider);
    return ss;
  }

  /// Deterministic per-operation seed for retry jitter.
  uint64_t NextOpSeed() {
    std::lock_guard<std::mutex> lock(core_->mu);
    return ActorIdHash()(ctx().self()) ^ (0x70657273ULL + ++core_->op_seq);
  }

  const PersistenceOptions options_;
  TState state_;
  std::shared_ptr<PersistCore> core_;
};

}  // namespace aodb

#endif  // AODB_STORAGE_PERSISTENT_ACTOR_H_
