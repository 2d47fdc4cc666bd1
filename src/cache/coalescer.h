// Coalescer: the cross-request coalescing stage between GCache and the
// persister, on both the miss-load path and the dirty-flush store path (cf.
// Bilibili's "Enhanced Batch Query Architecture", PAPERS.md). GCache batches
// storage round trips within one request or flush group; under Zipfian
// celebrity traffic the remaining waste is across them — concurrent misses
// (or flushes) of one hot pid each pay a round trip, and requests arriving
// microseconds apart each pay their own MultiGet / MultiSet. The coalescer
// removes both with one in-flight table keyed by pid, dispatched by group
// commit:
//
//   * a submitter that finds no dispatch in flight dispatches its pids at
//     once — there is no collection window to wait out;
//   * submitters arriving while that round trip is on the wire park their
//     pids as pending; when it publishes, one of them claims the whole
//     pending set and dispatches it in chunks of kChunkPids. A batch thus
//     holds exactly the work that arrived during the previous round trip,
//     and at most one dispatch is in flight per coalescer.
//
// Every pid carries a snapshot epoch, and one rule set covers both sides. A
// load is a submission at epoch 0, so it always attaches to the entry
// pending or in flight for its pid. A store attaches to a pending entry and
// the newest epoch's snapshot rides; against an entry in flight, an equal
// or older epoch piggybacks on that write, while a newer one requeues
// behind it and resubmits once it lands, so one pid's writes reach the store
// in epoch order. Outcomes (and the load side's degraded flag) fan back per
// pid to every attached submitter, so a partial MultiSet failure reaches
// exactly the flush groups whose pids failed; the last waiter takes the
// value without a copy.
//
// A waiter whose deadline expires detaches: its unresolved pids fail with
// DeadlineExceeded while the shared entries keep running for everyone else,
// and a pending entry nobody waits on any more is dropped. So every pending
// entry has a blocked submitter, and whenever no dispatch is in flight one
// of them claims the set: no pending entry is ever left without a
// dispatcher.
//
// Trace attribution (bench_table2_latency's stage-sum self-check): waiting
// while pids are still pending, and the bookkeeping around a round trip,
// report as the side's coalesce span (`server.coalesce` /
// `server.store_coalesce`); waiting on a round trip another thread drives
// reports as `kv.load.shared` / `kv.store.shared`. The dispatcher's own
// round trip reports the usual `kv.*` / `codec.*` spans of the layers doing
// the work.
#ifndef IPS_CACHE_COALESCER_H_
#define IPS_CACHE_COALESCER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/profile_data.h"
#include "core/types.h"

namespace ips {

/// `Outcome` is what one pid's round trip yields: Result<ProfileData> on the
/// load side, Status on the store side (see the aliases below). Thread-safe.
/// Callers must quiesce (no Submit in flight) before destruction, the same
/// lifetime contract as the cache above it.
template <typename Outcome>
class Coalescer {
 public:
  /// Sentinel deadline meaning "wait forever" (== CallContext::kNoDeadline).
  static constexpr TimestampMs kNoDeadline =
      std::numeric_limits<TimestampMs>::max();
  /// Pids per downstream call; a larger pending set goes out in chunks.
  static constexpr size_t kChunkPids = 256;

  /// One downstream round trip (typically Persister::LoadBatch or
  /// StoreBatch). Outcomes align with `pids`; so do `snapshots` (all null on
  /// the load side) and `degraded`, which arrives all false and may be set
  /// by a load served from a fallback replica.
  using DispatchFn = std::function<std::vector<Outcome>(
      const std::vector<ProfileId>& pids,
      const std::vector<const ProfileData*>& snapshots,
      std::vector<bool>* degraded)>;

  Coalescer(DispatchFn dispatch, Clock* clock,
            MetricsRegistry* metrics = nullptr);

  Coalescer(const Coalescer&) = delete;
  Coalescer& operator=(const Coalescer&) = delete;

  /// Submits `pids`, coalescing with every concurrent Submit, and blocks
  /// until each resolves or `deadline_ms` (absolute, in `clock`'s domain)
  /// passes. Loads pass empty `epochs` and `snapshots`. Stores pass both
  /// aligned with `pids`: `snapshots[i]` is borrowed, taken at mutation epoch
  /// `epochs[i]`, and must stay valid until the call returns. Any other shape
  /// fails every pid with InvalidArgument. Outcomes, and `out_degraded` when
  /// non-null, align with `pids`; expired pids get DeadlineExceeded.
  std::vector<Outcome> Submit(const std::vector<ProfileId>& pids,
                              const std::vector<uint64_t>& epochs,
                              const std::vector<const ProfileData*>& snapshots,
                              std::vector<bool>* out_degraded = nullptr,
                              TimestampMs deadline_ms = kNoDeadline);

  /// Pids currently pending or in flight (tests: the table must drain clean
  /// and an expired waiter must not leave a poisoned entry behind).
  size_t InFlightCount() const;

 private:
  /// One coalesced pid. Created pending, in flight once a dispatcher claims
  /// it, done when its round trip publishes. Submitters hold shared_ptrs, so
  /// the entry outlives its removal from the table. Guarded by mu_.
  struct Entry {
    enum class State { kPending, kInFlight, kDone };
    State state = State::kPending;
    /// Attached submitter slots that have not collected the outcome yet.
    int waiters = 0;
    /// Epoch and snapshot of the write this entry carries (the newest merged
    /// in while pending; frozen once in flight).
    uint64_t epoch = 0;
    const ProfileData* snapshot = nullptr;
    /// Submit call that created the entry (cross-submission accounting).
    uint64_t submission = 0;
    bool degraded = false;
    /// Unset until state == kDone (Result has no default construction).
    std::optional<Outcome> outcome;
  };
  using EntryPtr = std::shared_ptr<Entry>;
  /// One submitted pid: the entry it waits on, and whether it only waits
  /// for that entry to land before resubmitting (requeued behind an older
  /// write).
  struct Slot {
    EntryPtr entry;
    bool requeued = false;
  };

  /// Joins or creates the entry for one pid under mu_ (the rules in the file
  /// comment).
  Slot Attach(ProfileId pid, uint64_t epoch, const ProfileData* snapshot,
              uint64_t submission);
  /// Claims the whole pending set and runs its round trips. Called with
  /// `lock` held and no dispatch in flight; returns with it held.
  void Dispatch(std::unique_lock<std::mutex>& lock);
  /// Waits on cv_ until pred() holds or the deadline passes. Polls at ~1ms
  /// wall granularity when a deadline is set, so a ManualClock advanced past
  /// the deadline wakes the waiter promptly.
  template <typename Pred>
  void WaitUntil(std::unique_lock<std::mutex>& lock, TimestampMs deadline_ms,
                 Pred pred);

  DispatchFn dispatch_;
  Clock* clock_;
  const char* coalesce_span_;
  const char* shared_span_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Every pending or in-flight entry. Entries leave the moment their
  /// outcome is published, so later submissions start fresh.
  std::unordered_map<ProfileId, EntryPtr> inflight_;
  /// Pids created but not yet claimed, in arrival order.
  std::vector<ProfileId> pending_;
  bool dispatching_ = false;
  uint64_t next_submission_ = 0;

  // Cached metric handles; null when no registry is wired or the side has
  // no such metric.
  Counter* pending_hits_ = nullptr;
  Counter* inflight_hits_ = nullptr;
  Counter* requeued_pids_ = nullptr;
  Counter* deadline_detaches_ = nullptr;
  Counter* cross_submission_batches_ = nullptr;
  Histogram* batch_pids_ = nullptr;
};

/// Miss loads: between GCache's miss path and Persister::LoadBatch.
using LoadCoalescer = Coalescer<Result<ProfileData>>;
/// Store-backs: between GCache's flush and eviction write-backs and
/// Persister::StoreBatch.
using StoreCoalescer = Coalescer<Status>;

extern template class Coalescer<Result<ProfileData>>;
extern template class Coalescer<Status>;

}  // namespace ips

#endif  // IPS_CACHE_COALESCER_H_
