#include "cache/coalescer.h"

#include <algorithm>
#include <chrono>

#include "common/trace.h"

namespace ips {

namespace {

/// Span and metric names of one side. The store side counts attaches to a
/// pending and to an in-flight entry as one metric; a null name means the
/// side has no such metric (loads never requeue, stores have no deadline).
struct SideNames {
  const char* coalesce_span;
  const char* shared_span;
  const char* pending_hits;
  const char* inflight_hits;
  const char* requeued_pids;
  const char* deadline_detaches;
  const char* cross_submission_batches;
  const char* batch_pids;
};

template <typename Outcome>
SideNames NamesFor();

template <>
SideNames NamesFor<Result<ProfileData>>() {
  return {"server.coalesce",
          "kv.load.shared",
          "broker.cross_request_dedup",
          "broker.single_flight_hits",
          nullptr,
          "broker.deadline_detaches",
          nullptr,
          "broker.batch_pids"};
}

template <>
SideNames NamesFor<Status>() {
  return {"server.store_coalesce",
          "kv.store.shared",
          "store_broker.single_flight_hits",
          "store_broker.single_flight_hits",
          "store_broker.requeued_pids",
          nullptr,
          "store_broker.cross_shard_batches",
          "store_broker.batch_pids"};
}

void Bump(Counter* counter) {
  if (counter != nullptr) counter->Increment();
}

}  // namespace

template <typename Outcome>
Coalescer<Outcome>::Coalescer(DispatchFn dispatch, Clock* clock,
                              MetricsRegistry* metrics)
    : dispatch_(std::move(dispatch)), clock_(clock) {
  const SideNames names = NamesFor<Outcome>();
  coalesce_span_ = names.coalesce_span;
  shared_span_ = names.shared_span;
  if (metrics != nullptr) {
    // Registered eagerly so the names are live (and the docs-completeness
    // test sees them) even before the first coalesced round trip.
    auto counter = [metrics](const char* name) {
      return name == nullptr ? nullptr : metrics->GetCounter(name);
    };
    pending_hits_ = counter(names.pending_hits);
    inflight_hits_ = counter(names.inflight_hits);
    requeued_pids_ = counter(names.requeued_pids);
    deadline_detaches_ = counter(names.deadline_detaches);
    cross_submission_batches_ = counter(names.cross_submission_batches);
    batch_pids_ = metrics->GetHistogram(names.batch_pids);
  }
}

template <typename Outcome>
size_t Coalescer<Outcome>::InFlightCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_.size();
}

template <typename Outcome>
template <typename Pred>
void Coalescer<Outcome>::WaitUntil(std::unique_lock<std::mutex>& lock,
                                   TimestampMs deadline_ms, Pred pred) {
  if (deadline_ms == kNoDeadline) {
    cv_.wait(lock, pred);
    return;
  }
  while (!pred() && clock_->NowMs() < deadline_ms) {
    cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

template <typename Outcome>
typename Coalescer<Outcome>::Slot Coalescer<Outcome>::Attach(
    ProfileId pid, uint64_t epoch, const ProfileData* snapshot,
    uint64_t submission) {
  auto [it, inserted] = inflight_.try_emplace(pid);
  if (inserted) {
    it->second = std::make_shared<Entry>();
    it->second->epoch = epoch;
    it->second->snapshot = snapshot;
    it->second->submission = submission;
    pending_.push_back(pid);
  } else if (it->second->state == Entry::State::kPending) {
    // Not dispatched yet: one round trip serves both submissions, carrying
    // the newest snapshot of the pid.
    Entry& entry = *it->second;
    if (epoch > entry.epoch) {
      entry.epoch = epoch;
      entry.snapshot = snapshot;
    }
    if (entry.submission != submission) Bump(pending_hits_);
  } else if (epoch > it->second->epoch) {
    // The round trip on the wire carries an older snapshot. Ours must still
    // be written, but never concurrently with it: wait for it to land, then
    // resubmit.
    Bump(requeued_pids_);
    return Slot{it->second, /*requeued=*/true};
  } else if (it->second->submission != submission) {
    // In flight with our epoch or a newer one: ride it. The hot-key case —
    // one round trip serves several requests or flushes.
    Bump(inflight_hits_);
  }
  ++it->second->waiters;
  return Slot{it->second, /*requeued=*/false};
}

template <typename Outcome>
void Coalescer<Outcome>::Dispatch(std::unique_lock<std::mutex>& lock) {
  dispatching_ = true;
  std::vector<ProfileId> batch;
  std::vector<EntryPtr> entries;
  {
    // Claim the entire pending set — ours plus every pid parked during the
    // previous round trip — and wake its waiters so their wait reattributes
    // to the shared span.
    ScopedSpan claim_span(coalesce_span_);
    batch.swap(pending_);
    entries.reserve(batch.size());
    for (ProfileId pid : batch) {
      EntryPtr& entry = inflight_.find(pid)->second;
      entry->state = Entry::State::kInFlight;
      entries.push_back(entry);
    }
    cv_.notify_all();
  }

  std::vector<ProfileId> chunk;
  std::vector<const ProfileData*> snapshots;
  std::vector<bool> degraded;
  for (size_t begin = 0; begin < batch.size(); begin += kChunkPids) {
    const size_t end = std::min(batch.size(), begin + kChunkPids);
    bool cross_submission = false;
    {
      ScopedSpan chunk_span(coalesce_span_);
      chunk.assign(batch.begin() + begin, batch.begin() + end);
      snapshots.clear();
      for (size_t i = begin; i < end; ++i) {
        snapshots.push_back(entries[i]->snapshot);
        cross_submission |=
            entries[i]->submission != entries[begin]->submission;
      }
      degraded.assign(chunk.size(), false);
    }
    lock.unlock();
    // The round trip every attached submitter shares. It runs outside mu_ on
    // this thread, so its kv.* / codec.* spans attribute to this trace like
    // any inline call. Snapshots belong to submitters blocked until their
    // entries publish, so they stay valid here.
    std::vector<Outcome> outcomes = dispatch_(chunk, snapshots, &degraded);
    // Publication — re-acquiring mu_ (contention included) and fanning the
    // outcomes into the entries — opens its span before the lock so the wait
    // charges to coalescing, not to an untraced gap.
    ScopedSpan publish_span(coalesce_span_);
    lock.lock();
    if (batch_pids_ != nullptr) {
      batch_pids_->Record(static_cast<int64_t>(chunk.size()));
    }
    if (cross_submission) Bump(cross_submission_batches_);
    for (size_t i = begin; i < end; ++i) {
      Entry& entry = *entries[i];
      // Leave the table first: a submission arriving after publication must
      // start a fresh round trip, not observe a completed entry.
      inflight_.erase(batch[i]);
      const size_t k = i - begin;
      entry.degraded = k < degraded.size() && degraded[k];
      if (k < outcomes.size()) {
        entry.outcome.emplace(std::move(outcomes[k]));
      } else {
        entry.outcome.emplace(
            Status::Internal("coalesced round trip returned a short result "
                             "list"));
      }
      entry.state = Entry::State::kDone;
    }
    if (end == batch.size()) dispatching_ = false;
    cv_.notify_all();
  }
}

template <typename Outcome>
std::vector<Outcome> Coalescer<Outcome>::Submit(
    const std::vector<ProfileId>& pids, const std::vector<uint64_t>& epochs,
    const std::vector<const ProfileData*>& snapshots,
    std::vector<bool>* out_degraded, TimestampMs deadline_ms) {
  if (out_degraded != nullptr) out_degraded->assign(pids.size(), false);
  const bool load = epochs.empty() && snapshots.empty();
  if (!load &&
      (epochs.size() != pids.size() || snapshots.size() != pids.size())) {
    return std::vector<Outcome>(
        pids.size(),
        Outcome(Status::InvalidArgument(
            "coalescer pids/epochs/snapshots mismatch")));
  }
  std::vector<Outcome> results;
  if (pids.empty()) return results;

  std::vector<Slot> slots(pids.size());
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  uint64_t submission = 0;
  const auto attach = [&](size_t i) {
    slots[i] = load ? Attach(pids[i], 0, nullptr, submission)
                    : Attach(pids[i], epochs[i], snapshots[i], submission);
  };
  {
    // Bookkeeping — taking mu_ (contention included) and attaching — is
    // coalescing work; attributing it to the coalesce span keeps the traced
    // stage sum covering the full path.
    ScopedSpan attach_span(coalesce_span_);
    results.reserve(pids.size());
    lock.lock();
    submission = ++next_submission_;
    for (size_t i = 0; i < pids.size(); ++i) attach(i);
  }

  const auto any_in = [&slots](typename Entry::State state) {
    for (const Slot& slot : slots) {
      if (slot.entry->state == state) return true;
    }
    return false;
  };
  for (;;) {
    // A requeued pid resubmits in the same lock hold that observed the
    // older write land, so no third writer slips between them unobserved.
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].requeued &&
          slots[i].entry->state == Entry::State::kDone) {
        attach(i);
      }
    }
    const bool pending = any_in(Entry::State::kPending);
    if (pending && !dispatching_) {
      // Group commit: nothing on the wire, so dispatch now — our pids plus
      // whatever else is pending.
      Dispatch(lock);
      continue;
    }
    if (!pending && !any_in(Entry::State::kInFlight)) break;
    if (deadline_ms != kNoDeadline && clock_->NowMs() >= deadline_ms) break;
    // Phase 1: parked behind the round trip on the wire, waiting to claim.
    // Phase 2: our pids are on the wire on another thread.
    ScopedSpan wait_span(pending ? coalesce_span_ : shared_span_);
    WaitUntil(lock, deadline_ms, [&] {
      return pending ? !dispatching_ || !any_in(Entry::State::kPending)
                     : !any_in(Entry::State::kInFlight);
    });
  }

  // Collect, fanning each shared outcome and degraded flag to this
  // submitter. A pid still unresolved here means our deadline expired: we
  // detach and fail only our own slot. The entry stays healthy for the other
  // waiters; a pending entry left with none is dropped so it cannot stall.
  ScopedSpan collect_span(coalesce_span_);
  int64_t detached = 0;
  for (size_t i = 0; i < pids.size(); ++i) {
    Entry& entry = *slots[i].entry;
    if (!slots[i].requeued) --entry.waiters;
    if (slots[i].requeued || entry.state != Entry::State::kDone) {
      ++detached;
      results.emplace_back(
          Status::DeadlineExceeded("deadline expired during shared round "
                                   "trip"));
      if (entry.state == Entry::State::kPending && entry.waiters == 0) {
        inflight_.erase(pids[i]);
        pending_.erase(std::find(pending_.begin(), pending_.end(), pids[i]));
      }
      continue;
    }
    if (out_degraded != nullptr) (*out_degraded)[i] = entry.degraded;
    if (entry.waiters == 0) {
      results.push_back(std::move(*entry.outcome));
    } else {
      results.push_back(*entry.outcome);
    }
  }
  if (detached > 0 && deadline_detaches_ != nullptr) {
    deadline_detaches_->Increment(detached);
  }
  return results;
}

template class Coalescer<Result<ProfileData>>;
template class Coalescer<Status>;

}  // namespace ips
