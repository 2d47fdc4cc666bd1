// LoadCoalescer: the cross-request coalescing stage between GCache's miss
// path and the persister (cf. Bilibili's "Enhanced Batch Query
// Architecture", PAPERS.md). GCache batches storage round trips within one
// request; under Zipfian celebrity traffic the remaining waste is across
// them — concurrent misses of one hot pid each pay a round trip, and
// requests arriving microseconds apart each pay their own MultiGet. The
// coalescer removes both with one in-flight table keyed by pid, dispatched
// by group commit. It shares the round trip, not the decode: a dispatch
// runs only the fetch (Persister::FetchBatch), and Submit hands each
// submitter the bytes of its own pids to decode on its own thread, so the
// decode of every parked request does not serialize behind one dispatching
// thread:
//
//   * a submitter that finds no dispatch in flight dispatches its pids at
//     once — there is no collection window to wait out;
//   * submitters arriving while that round trip is on the wire park their
//     pids as pending; when it publishes, one of them claims the whole
//     pending set and dispatches it in chunks of kChunkPids. A batch thus
//     holds exactly the work that arrived during the previous round trip,
//     and at most one dispatch is in flight per coalescer.
//
// A submission attaches to the entry pending or in flight for each of its
// pids, or creates one. Fetched bytes (degraded flag included) fan back per
// pid to every attached submitter; the last waiter takes them without a
// copy.
// The store side has no coalescer: GCache serializes its write-backs (see
// gcache.h), so there are no concurrent stores to share a round trip.
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
// report as `server.coalesce`; waiting on a round trip another thread drives
// reports as `kv.load.shared`. The dispatcher's own round trip reports the
// usual `kv.*` spans of the layers doing the work; each submitter's decode,
// after Submit returns, reports its own `codec.decode`.
#ifndef IPS_CACHE_COALESCER_H_
#define IPS_CACHE_COALESCER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "codec/profile_codec.h"
#include "common/status.h"
#include "core/types.h"

namespace ips {

/// Thread-safe. Callers must quiesce (no Submit in flight) before
/// destruction, the same lifetime contract as the cache above it.
class LoadCoalescer {
 public:
  /// Sentinel deadline meaning "wait forever" (== CallContext::kNoDeadline).
  static constexpr TimestampMs kNoDeadline =
      std::numeric_limits<TimestampMs>::max();
  /// Pids per downstream call; a larger pending set goes out in chunks.
  static constexpr size_t kChunkPids = 256;

  /// One shared downstream round trip (typically Persister::FetchBatch).
  /// Results align with `pids`.
  using FetchFn = std::function<std::vector<FetchedProfile>(
      const std::vector<ProfileId>& pids)>;

  LoadCoalescer(FetchFn fetch, Clock* clock,
                MetricsRegistry* metrics = nullptr);

  LoadCoalescer(const LoadCoalescer&) = delete;
  LoadCoalescer& operator=(const LoadCoalescer&) = delete;

  /// Submits `pids`, coalescing their fetch with every concurrent Submit,
  /// and blocks until each fetch resolves or `deadline_ms` (absolute, in
  /// `clock`'s domain) passes. Returns the fetched bytes aligned with
  /// `pids`, for the caller to decode on its own thread; expired pids carry
  /// DeadlineExceeded.
  std::vector<FetchedProfile> Submit(const std::vector<ProfileId>& pids,
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
    /// Attached submitters that have not collected the outcome yet.
    int waiters = 0;
    /// Submit call that created the entry (cross-request accounting).
    uint64_t submission = 0;
    /// Meaningful once state == kDone.
    FetchedProfile fetched;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  /// Joins or creates the entry for one pid under mu_.
  EntryPtr Attach(ProfileId pid, uint64_t submission);
  /// Claims the whole pending set and runs its round trips. Called with
  /// `lock` held and no dispatch in flight; returns with it held.
  void Dispatch(std::unique_lock<std::mutex>& lock);
  /// Waits on cv_ until pred() holds or the deadline passes. Polls at ~1ms
  /// wall granularity when a deadline is set, so a ManualClock advanced past
  /// the deadline wakes the waiter promptly.
  template <typename Pred>
  void WaitUntil(std::unique_lock<std::mutex>& lock, TimestampMs deadline_ms,
                 Pred pred);

  FetchFn fetch_;
  Clock* clock_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Every pending or in-flight entry. Entries leave the moment their
  /// outcome is published, so later submissions start fresh.
  std::unordered_map<ProfileId, EntryPtr> inflight_;
  /// Pids created but not yet claimed, in arrival order.
  std::vector<ProfileId> pending_;
  bool dispatching_ = false;
  uint64_t next_submission_ = 0;

  // Cached metric handles; null when no registry is wired.
  Counter* pending_hits_ = nullptr;
  Counter* inflight_hits_ = nullptr;
  Counter* deadline_detaches_ = nullptr;
  Histogram* batch_pids_ = nullptr;
};

}  // namespace ips

#endif  // IPS_CACHE_COALESCER_H_
