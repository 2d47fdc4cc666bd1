#include "cache/coalescer.h"

#include <algorithm>
#include <chrono>

#include "common/trace.h"

namespace ips {

namespace {

constexpr const char* kCoalesceSpan = "server.coalesce";
constexpr const char* kSharedSpan = "kv.load.shared";

}  // namespace

LoadCoalescer::LoadCoalescer(FetchFn fetch, Clock* clock,
                             MetricsRegistry* metrics)
    : fetch_(std::move(fetch)), clock_(clock) {
  if (metrics != nullptr) {
    // Registered eagerly so the names are live (and the docs-completeness
    // test sees them) even before the first coalesced round trip.
    pending_hits_ = metrics->GetCounter("broker.cross_request_dedup");
    inflight_hits_ = metrics->GetCounter("broker.single_flight_hits");
    deadline_detaches_ = metrics->GetCounter("broker.deadline_detaches");
    batch_pids_ = metrics->GetHistogram("broker.batch_pids");
  }
}

size_t LoadCoalescer::InFlightCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_.size();
}

template <typename Pred>
void LoadCoalescer::WaitUntil(std::unique_lock<std::mutex>& lock,
                              TimestampMs deadline_ms, Pred pred) {
  if (deadline_ms == kNoDeadline) {
    cv_.wait(lock, pred);
    return;
  }
  while (!pred() && clock_->NowMs() < deadline_ms) {
    cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

LoadCoalescer::EntryPtr LoadCoalescer::Attach(ProfileId pid,
                                              uint64_t submission) {
  auto [it, inserted] = inflight_.try_emplace(pid);
  EntryPtr& entry = it->second;
  if (inserted) {
    entry = std::make_shared<Entry>();
    entry->submission = submission;
    pending_.push_back(pid);
  } else if (entry->submission != submission) {
    // Another request's load of this pid: one round trip serves both —
    // before dispatch (dedup) or while it is on the wire (single flight,
    // the hot-key case).
    Counter* hits = entry->state == Entry::State::kPending ? pending_hits_
                                                           : inflight_hits_;
    if (hits != nullptr) hits->Increment();
  }
  ++entry->waiters;
  return entry;
}

void LoadCoalescer::Dispatch(std::unique_lock<std::mutex>& lock) {
  dispatching_ = true;
  std::vector<ProfileId> batch;
  std::vector<EntryPtr> entries;
  {
    // Claim the entire pending set — ours plus every pid parked during the
    // previous round trip — and wake its waiters so their wait reattributes
    // to the shared span.
    ScopedSpan claim_span(kCoalesceSpan);
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
  for (size_t begin = 0; begin < batch.size(); begin += kChunkPids) {
    const size_t end = std::min(batch.size(), begin + kChunkPids);
    {
      ScopedSpan chunk_span(kCoalesceSpan);
      chunk.assign(batch.begin() + begin, batch.begin() + end);
    }
    lock.unlock();
    // The round trip every attached submitter shares. It runs outside mu_ on
    // this thread, so its kv.* spans attribute to this trace like any inline
    // call.
    std::vector<FetchedProfile> fetched = fetch_(chunk);
    // Publication — re-acquiring mu_ (contention included) and fanning the
    // outcomes into the entries — opens its span before the lock so the wait
    // charges to coalescing, not to an untraced gap.
    ScopedSpan publish_span(kCoalesceSpan);
    lock.lock();
    if (batch_pids_ != nullptr) {
      batch_pids_->Record(static_cast<int64_t>(chunk.size()));
    }
    for (size_t i = begin; i < end; ++i) {
      Entry& entry = *entries[i];
      // Leave the table first: a submission arriving after publication must
      // start a fresh round trip, not observe a completed entry.
      inflight_.erase(batch[i]);
      const size_t k = i - begin;
      if (k < fetched.size()) {
        entry.fetched = std::move(fetched[k]);
      } else {
        entry.fetched.status = Status::Internal(
            "coalesced round trip returned a short result list");
      }
      entry.state = Entry::State::kDone;
    }
    if (end == batch.size()) dispatching_ = false;
    cv_.notify_all();
  }
}

std::vector<FetchedProfile> LoadCoalescer::Submit(
    const std::vector<ProfileId>& pids, TimestampMs deadline_ms) {
  if (pids.empty()) return {};

  std::vector<EntryPtr> slots;
  std::vector<FetchedProfile> fetched;
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  {
    // Bookkeeping — taking mu_ (contention included) and attaching — is
    // coalescing work; attributing it to the coalesce span keeps the traced
    // stage sum covering the full path.
    ScopedSpan attach_span(kCoalesceSpan);
    slots.reserve(pids.size());
    fetched.reserve(pids.size());
    lock.lock();
    const uint64_t submission = ++next_submission_;
    for (ProfileId pid : pids) slots.push_back(Attach(pid, submission));
  }

  const auto any_in = [&slots](Entry::State state) {
    for (const EntryPtr& entry : slots) {
      if (entry->state == state) return true;
    }
    return false;
  };
  for (;;) {
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
    ScopedSpan wait_span(pending ? kCoalesceSpan : kSharedSpan);
    WaitUntil(lock, deadline_ms, [&] {
      return pending ? !dispatching_ || !any_in(Entry::State::kPending)
                     : !any_in(Entry::State::kInFlight);
    });
  }

  {
    // Collect, fanning each shared fetch to this submitter. A pid still
    // unresolved here means our deadline expired: we detach and fail only
    // our own slot. The entry stays healthy for the other waiters; a pending
    // entry left with none is dropped so it cannot stall.
    ScopedSpan collect_span(kCoalesceSpan);
    int64_t detached = 0;
    for (size_t i = 0; i < pids.size(); ++i) {
      Entry& entry = *slots[i];
      --entry.waiters;
      if (entry.state != Entry::State::kDone) {
        ++detached;
        fetched.emplace_back().status = Status::DeadlineExceeded(
            "deadline expired during shared round trip");
        if (entry.state == Entry::State::kPending && entry.waiters == 0) {
          inflight_.erase(pids[i]);
          pending_.erase(std::find(pending_.begin(), pending_.end(), pids[i]));
        }
        continue;
      }
      if (entry.waiters == 0) {
        fetched.push_back(std::move(entry.fetched));
      } else {
        fetched.push_back(entry.fetched);
      }
    }
    if (detached > 0 && deadline_detaches_ != nullptr) {
      deadline_detaches_->Increment(detached);
    }
    lock.unlock();
  }
  return fetched;
}

}  // namespace ips
