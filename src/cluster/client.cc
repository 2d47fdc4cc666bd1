#include "cluster/client.h"

#include <algorithm>
#include <atomic>
#include <latch>
#include <optional>
#include <thread>

#include "common/hash.h"
#include "common/trace.h"

namespace ips {

namespace {

/// Per-call state of one Scatter, shared with the wrappers it submits. A
/// wrapper may run after the caller reclaimed its task and returned, so it
/// touches only this state, never the caller's stack.
struct ScatterState {
  explicit ScatterState(size_t n)
      : claimed(n), done(static_cast<std::ptrdiff_t>(n)) {}

  /// True for exactly one caller per task: whoever claims it runs it.
  bool Claim(size_t i) {
    return !claimed[i].exchange(true, std::memory_order_acq_rel);
  }

  std::vector<std::atomic<bool>> claimed;
  std::latch done;
};

/// Deduplicates `pids` in first-seen order: `unique` gets each distinct pid
/// once and slot_of[i] is the index in `unique` of pids[i]. An
/// open-addressing table keeps it to a constant number of allocations.
void DedupePids(std::span<const ProfileId> pids, std::vector<ProfileId>* unique,
                std::vector<uint32_t>* slot_of) {
  constexpr uint32_t kEmpty = UINT32_MAX;
  size_t capacity = 16;
  while (capacity < 2 * pids.size()) capacity <<= 1;
  std::vector<uint32_t> table(capacity, kEmpty);
  unique->reserve(pids.size());
  slot_of->resize(pids.size());
  for (size_t i = 0; i < pids.size(); ++i) {
    size_t h = static_cast<size_t>(Mix64(pids[i])) & (capacity - 1);
    while (table[h] != kEmpty && (*unique)[table[h]] != pids[i]) {
      h = (h + 1) & (capacity - 1);
    }
    if (table[h] == kEmpty) {
      table[h] = static_cast<uint32_t>(unique->size());
      unique->push_back(pids[i]);
    }
    (*slot_of)[i] = table[h];
  }
}

/// The status of an item no node has answered yet.
Status NoLiveInstance() { return Status::Unavailable("no live instance"); }

}  // namespace

size_t EstimateAddPayloadBytes(const std::vector<AddRecord>& records) {
  // Fixed envelope (caller, table, pid, batch framing) plus the encoded
  // fields of every record. Counts dominate for wide action vectors.
  size_t bytes = 64;
  for (const auto& r : records) {
    bytes += sizeof(r.timestamp) + sizeof(r.slot) + sizeof(r.type) +
             sizeof(r.fid) + r.counts.size() * sizeof(int64_t);
  }
  return bytes;
}

IpsClient::Counters::Counters(MetricsRegistry* metrics)
    : read_requests(metrics->GetCounter("client.read_requests")),
      read_errors(metrics->GetCounter("client.read_errors")),
      write_requests(metrics->GetCounter("client.write_requests")),
      write_errors(metrics->GetCounter("client.write_errors")),
      write_region_errors(metrics->GetCounter("client.write_region_errors")),
      write_partial_regions(
          metrics->GetCounter("client.write_partial_regions")),
      multi_read_requests(metrics->GetCounter("client.multi_read_requests")),
      multi_read_pids(metrics->GetCounter("client.multi_read_pids")),
      multi_read_errors(metrics->GetCounter("client.multi_read_errors")),
      multi_write_requests(metrics->GetCounter("client.multi_write_requests")),
      multi_write_pids(metrics->GetCounter("client.multi_write_pids")),
      multi_write_errors(metrics->GetCounter("client.multi_write_errors")),
      degraded_reads(metrics->GetCounter("client.degraded_reads")),
      deadline_exceeded(metrics->GetCounter("client.deadline_exceeded")),
      breaker_skips(metrics->GetCounter("client.breaker_skips")),
      retries(metrics->GetCounter("client.retries")),
      retry_budget_exhausted(
          metrics->GetCounter("client.retry_budget_exhausted")),
      throttle_backoffs(metrics->GetCounter("client.throttle_backoffs")) {}

IpsClient::IpsClient(IpsClientOptions options, Deployment* deployment)
    : options_(std::move(options)),
      deployment_(deployment),
      counters_(deployment->metrics()),
      retry_policy_(options_.retry),
      breakers_(options_.breaker),
      pool_(std::max(1u, std::thread::hardware_concurrency())) {
  if (!options_.local_region.empty()) {
    read_regions_.push_back(options_.local_region);
  }
  for (const auto& r : options_.failover_regions) read_regions_.push_back(r);
  if (read_regions_.empty()) read_regions_ = deployment_->region_names();
  RefreshView();
}

void IpsClient::RefreshView() {
  std::unordered_map<std::string, RegionView> regions;
  for (const auto& region : deployment_->region_names()) {
    std::vector<std::string> ids;
    for (const auto& entry : deployment_->discovery().Snapshot(region)) {
      ids.push_back(entry.instance_id);
    }
    RegionView& view = regions[region];
    view.ring.SetMembers(ids);
    for (const auto& id : view.ring.members()) {
      view.members.push_back({deployment_->FindNode(id), breakers_.Get(id)});
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  regions_.swap(regions);
  last_refresh_ms_ = deployment_->clock()->NowMs();
}

void IpsClient::MaybeRefresh() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const TimestampMs now = deployment_->clock()->NowMs();
    if (last_refresh_ms_ >= 0 &&
        now - last_refresh_ms_ < options_.refresh_interval_ms) {
      return;
    }
  }
  RefreshView();
}

void IpsClient::Route(const std::string& region,
                      std::span<const ProfileId> pids, int attempts,
                      Routing* out) {
  const size_t want = static_cast<size_t>(std::max(attempts, 0));
  // Probe the ring a little deeper than `attempts` so filtering open
  // breakers still leaves a full candidate list when possible.
  const size_t probe = want + (breakers_.enabled() ? 2 : 0);
  out->attempts = want;
  out->stride = probe;
  out->candidates.assign(pids.size() * probe, Routing::kNone);
  out->members.clear();
  if (want == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = regions_.find(region);
    if (it == regions_.end()) return;
    out->members = it->second.members;
    for (size_t i = 0; i < pids.size(); ++i) {
      it->second.ring.LookupNIndices(pids[i], probe,
                                     &out->candidates[i * probe]);
    }
  }
  if (!breakers_.enabled()) return;

  // AllowRequest has no side effects, so each member is asked once.
  const TimestampMs now = deployment_->clock()->NowMs();
  out->per_member.resize(out->members.size());
  for (size_t m = 0; m < out->members.size(); ++m) {
    out->per_member[m] = out->members[m].breaker->AllowRequest(now) ? 1 : 0;
  }
  int64_t skipped = 0;
  for (size_t i = 0; i < pids.size(); ++i) {
    uint32_t* row = &out->candidates[i * probe];
    const size_t found = static_cast<size_t>(
        std::find(row, row + probe, Routing::kNone) - row);
    // Compact the usable successors to the front of the row.
    size_t usable = 0;
    for (size_t k = 0; k < found && usable < want; ++k) {
      if (out->per_member[row[k]] != 0) {
        row[usable++] = row[k];
      } else {
        ++skipped;
      }
    }
    // Every successor's breaker is open. Refusing to try at all would turn
    // a flapping cluster into a guaranteed failure, so fall back to plain
    // ring order — the calls double as half-open probes.
    if (usable == 0) usable = std::min(found, want);
    std::fill(row + usable, row + probe, Routing::kNone);
  }
  if (skipped > 0) counters_.breaker_skips->Increment(skipped);
}

template <typename Pending>
size_t IpsClient::Routing::Group(size_t n, size_t attempt,
                                 const Pending& pending) {
  per_member.assign(members.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t m = pending(i) ? Candidate(i, attempt) : kNone;
    if (m != kNone) ++per_member[m];
  }
  owners.clear();
  begin.clear();
  uint32_t total = 0;
  for (uint32_t m = 0; m < per_member.size(); ++m) {
    const uint32_t count = per_member[m];
    if (count > 0) {
      owners.push_back(m);
      begin.push_back(total);
    }
    per_member[m] = total;  // next write position of this member's group
    total += count;
  }
  begin.push_back(total);
  items.resize(total);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t m = pending(i) ? Candidate(i, attempt) : kNone;
    if (m != kNone) items[per_member[m]++] = static_cast<uint32_t>(i);
  }
  return owners.size();
}

void IpsClient::Scatter(size_t n, const std::function<void(size_t)>& task) {
  if (n == 0) return;
  const size_t submitted = n - 1;
  if (submitted == 0) {
    task(0);
    return;
  }
  auto state = std::make_shared<ScatterState>(submitted);
  const std::function<void(size_t)>* fn = &task;
  for (size_t i = 0; i < submitted; ++i) {
    // A rejected submission (queue bound, shutdown) leaves the task
    // unclaimed; the reclaim pass below runs it.
    pool_.Submit([state, fn, i] {
      if (!state->Claim(i)) return;
      (*fn)(i);
      state->done.count_down();
    });
  }
  task(n - 1);
  for (size_t i = 0; i < submitted; ++i) {
    if (!state->Claim(i)) continue;
    task(i);
    state->done.count_down();
  }
  state->done.wait();
}

bool IpsClient::PrepareRetry(const Status& last_error, const CallContext& ctx) {
  const auto delay = retry_policy_.NextRetryDelayMs(last_error);
  if (!delay.has_value()) {
    // Distinguish "error is terminal" from "budget said no": only the
    // latter is a policy intervention worth a counter.
    if (retry_policy_.enabled() && last_error.IsRetryable()) {
      counters_.retry_budget_exhausted->Increment();
    }
    return false;
  }
  const int64_t sleep_ms = *delay;
  if (ctx.has_deadline()) {
    const int64_t remaining = ctx.RemainingMs(deployment_->clock()->NowMs());
    // The backoff must leave headroom for the attempt itself: sleeping the
    // full remaining budget lands exactly on the deadline, guaranteeing a
    // dead-on-arrival attempt whose DeadlineExceeded outcome would then be
    // charged to a healthy node's breaker. Fail with the real error now.
    if (remaining <= sleep_ms) return false;
  }
  if (last_error.IsThrottled() && last_error.has_retry_after()) {
    counters_.throttle_backoffs->Increment();
  }
  counters_.retries->Increment();
  if (sleep_ms > 0) deployment_->clock()->SleepMs(sleep_ms);
  return true;
}

void IpsClient::RecordOutcome(const Member& member, const Status& status) {
  if (!breakers_.enabled()) return;
  if (CircuitBreaker::IsNodeFault(status)) {
    member.breaker->RecordFailure(deployment_->clock()->NowMs());
  } else {
    member.breaker->RecordSuccess();
  }
}

Status IpsClient::AddProfile(const std::string& table, ProfileId pid,
                             TimestampMs timestamp, SlotId slot, TypeId type,
                             FeatureId fid, const CountVector& counts) {
  AddRecord record;
  record.timestamp = timestamp;
  record.slot = slot;
  record.type = type;
  record.fid = fid;
  record.counts = counts;
  return AddProfiles(table, pid, {record});
}

Status IpsClient::AddProfiles(const std::string& table, ProfileId pid,
                              const std::vector<AddRecord>& records) {
  return AddProfilesAs(options_.caller, table, pid, records);
}

bool IpsClient::HasTableAnywhere(const std::string& table) {
  MaybeRefresh();
  for (const auto& region : deployment_->region_names()) {
    for (auto* node : deployment_->NodesInRegion(region)) {
      if (!node->IsDown() && node->instance().HasTable(table)) return true;
    }
  }
  return false;
}

Status IpsClient::AddProfilesAs(const std::string& caller,
                                const std::string& table, ProfileId pid,
                                const std::vector<AddRecord>& records,
                                const CallContext& ctx, WriteAck* out_ack) {
  MaybeRefresh();
  counters_.write_requests->Increment();
  retry_policy_.OnRequestStart();

  // The transport cost model is size-proportional: charge the encoded size
  // of the record batch, not a fixed per-request constant.
  const size_t request_bytes = EstimateAddPayloadBytes(records);

  // Multi-region writing: every region gets the record on its owning node.
  // The retry policy gates *successor* attempts within a region; the region
  // fan-out itself is the write contract, not a retry.
  size_t regions_ok = 0;
  bool deadline_hit = false;
  Status last_error = NoLiveInstance();
  Routing routing;
  for (const auto& region : deployment_->region_names()) {
    if (deadline_hit) break;
    Status region_status = NoLiveInstance();
    Route(region, std::span<const ProfileId>(&pid, 1),
          options_.max_write_attempts, &routing);
    bool first_in_region = true;
    for (size_t attempt = 0; attempt < routing.attempts; ++attempt) {
      const uint32_t m = routing.Candidate(0, attempt);
      if (m == Routing::kNone) break;
      const Member& member = routing.members[m];
      if (member.node == nullptr) continue;
      if (ctx.Expired(deployment_->clock()->NowMs())) {
        counters_.deadline_exceeded->Increment();
        region_status = Status::DeadlineExceeded("client deadline expired");
        deadline_hit = true;
        break;
      }
      if (!first_in_region && retry_policy_.enabled() &&
          !PrepareRetry(region_status, ctx)) {
        break;
      }
      first_in_region = false;
      region_status = member.node->Call(
          ctx, request_bytes, /*response_bytes=*/64,
          [&](IpsInstance& instance) {
            return instance.AddProfiles(caller, table, pid, records, ctx);
          });
      RecordOutcome(member, region_status);
      if (region_status.ok()) break;
      // A hint-less quota rejection is a server decision, not a node fault:
      // stop hammering successors (they enforce the same quota). A load-shed
      // WITH a retry-after hint may continue — the next attempt's
      // PrepareRetry paces it by the hint without burning budget.
      if (region_status.IsResourceExhausted() &&
          !region_status.has_retry_after()) {
        break;
      }
    }
    if (region_status.ok()) {
      ++regions_ok;
    } else {
      last_error = region_status;
      counters_.write_region_errors->Increment();
    }
  }
  // A deadline can expire before later regions were even attempted; they
  // still count as not-acked — the ack reports coverage of the full
  // deployment, not of the subset we got around to.
  const size_t regions_total = deployment_->region_names().size();
  if (out_ack != nullptr) {
    out_ack->regions_ok = regions_ok;
    out_ack->regions_total = regions_total;
  }
  if (regions_ok == 0) {
    counters_.write_errors->Increment();
    // Surface the representative cause: callers distinguish quota pacing
    // (back off and retry) from unavailability (fail over / alert).
    return last_error;
  }
  if (regions_ok < regions_total) {
    // Partial multi-region write: acknowledged (weak-consistency contract)
    // but NOT silent — the missed regions serve stale reads until repair.
    counters_.write_partial_regions->Increment();
  }
  return Status::OK();
}

Result<MultiAddResult> IpsClient::MultiAddAs(
    const std::string& caller, const std::string& table,
    const std::vector<MultiAddItem>& items, const CallContext& ctx) {
  if (items.empty()) return Status::InvalidArgument("empty add batch");
  MaybeRefresh();
  counters_.multi_write_requests->Increment();
  counters_.multi_write_pids->Increment(static_cast<int64_t>(items.size()));
  retry_policy_.OnRequestStart();

  // Root span covering the whole multi-region scatter-gather; sub-calls pass
  // the derived context to node->Call, which re-installs it on whichever
  // thread runs them, so per-node spans parent to this root.
  TraceInstallScope trace_install(ctx.trace);
  ScopedSpan root_span("client.multi_add");
  CallContext call_ctx = ctx;
  call_ctx.trace = CurrentTrace();

  struct ItemState {
    size_t regions_ok = 0;
    bool done_region = false;  // acknowledged in the region being processed
    Status status;             // last error; OK until a node answers
  };
  std::vector<ItemState> states(items.size());
  std::vector<ProfileId> item_pids(items.size());
  for (size_t s = 0; s < items.size(); ++s) item_pids[s] = items[s].pid;
  bool stop_all = false;

  // Multi-region writing, one region at a time: within a region the items
  // are grouped by ring owner and each group goes out as ONE MultiAdd RPC,
  // sub-calls in parallel (they write disjoint item states — no lock). The
  // region fan-out itself is the write contract, not a retry; the retry
  // policy gates successor rounds *within* a region, like AddProfilesAs.
  const std::vector<std::string>& regions = deployment_->region_names();
  Routing routing;
  for (const auto& region : regions) {
    if (stop_all) break;
    for (auto& state : states) state.done_region = false;
    Route(region, item_pids, options_.max_write_attempts, &routing);
    bool quota_stop = false;
    bool first_in_region = true;
    for (int attempt = 0;
         attempt < options_.max_write_attempts && !quota_stop; ++attempt) {
      const TimestampMs round_now = deployment_->clock()->NowMs();
      if (ctx.Expired(round_now)) {
        counters_.deadline_exceeded->Increment();
        for (auto& state : states) {
          if (!state.done_region && state.regions_ok == 0) {
            state.status = Status::DeadlineExceeded("client deadline expired");
          }
        }
        stop_all = true;
        break;
      }
      // Group unfinished items by this attempt's ring owner.
      const size_t groups = routing.Group(
          items.size(), static_cast<size_t>(attempt),
          [&](size_t s) { return !states[s].done_region; });
      if (groups == 0) break;

      // Successor rounds need a grant from the retry policy; refusal stops
      // this region's retries but later regions still get their fan-out.
      if (!first_in_region && retry_policy_.enabled()) {
        Status round_error = NoLiveInstance();
        for (const auto& state : states) {
          if (!state.done_region) {
            if (!state.status.ok()) round_error = state.status;
            break;
          }
        }
        if (!PrepareRetry(round_error, ctx)) break;
      }
      first_in_region = false;

      // Nodes whose breaker re-opened since routing are skipped; their
      // items stay unfinished for the next successor.
      routing.sends.clear();
      for (uint32_t g = 0; g < groups; ++g) {
        const Member& member = routing.members[routing.owners[g]];
        if (member.node == nullptr) continue;
        if (breakers_.enabled() && !member.breaker->AllowRequest(round_now)) {
          const uint32_t first = routing.begin[g];
          const uint32_t last = routing.begin[g + 1];
          counters_.breaker_skips->Increment(last - first);
          for (uint32_t k = first; k < last; ++k) {
            states[routing.items[k]].status =
                Status::Unavailable("circuit breaker open");
          }
          continue;
        }
        routing.sends.push_back(g);
      }

      std::atomic<bool> saw_quota{false};
      Scatter(routing.sends.size(), [&](size_t t) {
        const uint32_t g = routing.sends[t];
        const Member& member = routing.members[routing.owners[g]];
        const uint32_t first = routing.begin[g];
        const uint32_t count = routing.begin[g + 1] - first;
        const uint32_t* item_ids = &routing.items[first];
        std::vector<MultiAddItem> sub;
        sub.reserve(count);
        size_t request_bytes = 0;
        for (uint32_t j = 0; j < count; ++j) {
          sub.push_back(items[item_ids[j]]);
          request_bytes += EstimateAddPayloadBytes(items[item_ids[j]].records);
        }
        Result<MultiAddResult> batch = Status::Unavailable("unset");
        Status call_status = member.node->Call(
            call_ctx, request_bytes,
            /*response_bytes=*/64 * sub.size(),
            [&](IpsInstance& instance) {
              batch = instance.MultiAdd(caller, table, sub, call_ctx);
              return batch.ok() ? Status::OK() : batch.status();
            });
        if (call_status.ok() && batch.ok()) {
          RecordOutcome(member, Status::OK());
          for (uint32_t j = 0; j < count; ++j) {
            ItemState& state = states[item_ids[j]];
            if (batch->statuses[j].ok()) {
              state.done_region = true;
            } else {
              state.status = std::move(batch->statuses[j]);
            }
          }
        } else {
          // Batch-level failure (node down, quota, unknown table): every
          // item in the sub-batch shares the cause.
          Status error = call_status.ok() ? batch.status() : call_status;
          RecordOutcome(member, error);
          // Hint-less quota rejections stop the region's retries below; a
          // load-shed WITH a retry-after hint is re-offered on the next
          // round, paced by PrepareRetry honoring the hint.
          if (error.IsResourceExhausted() && !error.has_retry_after()) {
            saw_quota.store(true, std::memory_order_relaxed);
          }
          for (uint32_t j = 0; j < count; ++j) {
            states[item_ids[j]].status = error;
          }
        }
      });
      // Quota rejections are not retried within the region: successors
      // enforce the same per-caller budget.
      if (saw_quota.load(std::memory_order_relaxed)) quota_stop = true;
    }
    for (auto& state : states) {
      if (state.done_region) ++state.regions_ok;
    }
  }

  // Gather: an item is acknowledged when at least one region accepted it
  // (the weak-consistency write contract); partial region coverage is
  // surfaced through the counter rather than silently dropped.
  MultiAddResult out;
  out.statuses.assign(items.size(), Status::OK());
  int64_t failed = 0;
  int64_t partial = 0;
  for (size_t s = 0; s < items.size(); ++s) {
    if (states[s].regions_ok == 0) {
      out.statuses[s] = states[s].status.ok() ? NoLiveInstance()
                                              : std::move(states[s].status);
      ++failed;
    } else {
      ++out.ok_items;
      if (states[s].regions_ok < regions.size()) ++partial;
    }
  }
  if (failed > 0) counters_.multi_write_errors->Increment(failed);
  if (partial > 0) counters_.write_partial_regions->Increment(partial);
  return out;
}

Result<QueryResult> IpsClient::Query(const std::string& table, ProfileId pid,
                                     const QuerySpec& spec,
                                     const CallContext& ctx) {
  // Root span for the whole client-side request (attempts, backoff, RPC).
  // Children recorded below (rpc.transfer, server.query, ...) parent to it
  // via the derived context handed to node->Call.
  TraceInstallScope trace_install(ctx.trace);
  ScopedSpan root_span("client.query");
  CallContext call_ctx = ctx;
  call_ctx.trace = CurrentTrace();

  // Client-side dispatch machinery — discovery refresh, routing, retry
  // policy, outcome bookkeeping — is real per-request work. It reports as
  // rpc.dispatch so the disjoint-stage sum accounts for it; the span is
  // suspended around node->Call so it never overlaps rpc.transfer or any
  // server-side stage.
  std::optional<ScopedSpan> dispatch_span;
  dispatch_span.emplace("rpc.dispatch");
  MaybeRefresh();
  counters_.read_requests->Increment();
  retry_policy_.OnRequestStart();

  // The result slot and handler are built once, inside the dispatch span, and
  // reused across attempts: the std::function allocation would otherwise land
  // in the untraced window while the span is suspended around node->Call.
  Result<QueryResult> query_result = Status::Unavailable("unset");
  const std::function<Status(IpsInstance&)> handler =
      [&](IpsInstance& instance) {
        query_result =
            instance.Query(options_.caller, table, pid, spec, call_ctx);
        return query_result.ok() ? Status::OK() : query_result.status();
      };

  Status last_error = NoLiveInstance();
  Routing routing;
  bool first_attempt = true;
  // Server-paced (retry-after) re-offers allowed for this request. The cap
  // keeps a deadline-less request from pacing against a shedding server
  // forever; with a deadline, PrepareRetry's headroom check bounds it too.
  int throttle_retries = options_.max_read_attempts;
  for (const auto& region : read_regions_) {
    Route(region, std::span<const ProfileId>(&pid, 1),
          options_.max_read_attempts, &routing);
    for (size_t ci = 0; ci < routing.attempts;) {
      const uint32_t m = routing.Candidate(0, ci);
      if (m == Routing::kNone) break;
      const Member& member = routing.members[m];
      if (member.node == nullptr) {
        ++ci;
        continue;
      }
      if (ctx.Expired(deployment_->clock()->NowMs())) {
        counters_.deadline_exceeded->Increment();
        counters_.read_errors->Increment();
        return Status::DeadlineExceeded("client deadline expired");
      }
      // Attempts after the first need a grant from the retry policy:
      // terminal errors and an exhausted budget both stop the loop.
      if (!first_attempt && retry_policy_.enabled() &&
          !PrepareRetry(last_error, ctx)) {
        counters_.read_errors->Increment();
        return last_error;
      }
      first_attempt = false;
      query_result = Status::Unavailable("unset");
      dispatch_span.reset();
      Status call_status = member.node->Call(
          call_ctx, options_.request_bytes, options_.response_bytes, handler);
      dispatch_span.emplace("rpc.dispatch");
      if (call_status.ok() && query_result.ok()) {
        RecordOutcome(member, Status::OK());
        if (query_result->degraded) counters_.degraded_reads->Increment();
        return query_result;
      }
      last_error = call_status.ok() ? query_result.status() : call_status;
      RecordOutcome(member, last_error);
      if (last_error.IsThrottled()) {
        // A load-shed with a retry-after hint means "come back to ME after
        // the hint" — re-offer to the SAME node after the server-paced
        // backoff (PrepareRetry grants the hint without burning budget).
        // A hint-less quota rejection stays terminal: successors enforce
        // the same per-caller budget.
        if (last_error.has_retry_after() && throttle_retries > 0) {
          --throttle_retries;
          continue;
        }
        break;
      }
      ++ci;
    }
    if (last_error.IsResourceExhausted()) break;
  }
  counters_.read_errors->Increment();
  return last_error;
}

Result<MultiQueryResult> IpsClient::MultiQuery(const std::string& table,
                                               std::span<const ProfileId> pids,
                                               const QuerySpec& spec,
                                               const CallContext& ctx) {
  if (pids.empty()) return Status::InvalidArgument("empty pid batch");
  MaybeRefresh();
  counters_.multi_read_requests->Increment();
  counters_.multi_read_pids->Increment(static_cast<int64_t>(pids.size()));
  retry_policy_.OnRequestStart();

  // Root span covering the whole scatter-gather. Sub-calls pass the derived
  // context to node->Call, which re-installs it on whichever thread runs
  // them, so the parallel per-node spans all parent to this root.
  TraceInstallScope trace_install(ctx.trace);
  ScopedSpan root_span("client.multi_query");
  CallContext call_ctx = ctx;
  call_ctx.trace = CurrentTrace();

  // Deduplicate while preserving first-seen order: duplicate candidates cost
  // one lookup and fan back out on reassembly.
  std::vector<ProfileId> unique;
  std::vector<uint32_t> slot_of;
  DedupePids(pids, &unique, &slot_of);

  struct SlotState {
    bool done = false;
    Status status;  // last error; OK until a node answers
    QueryResult result;
  };
  std::vector<SlotState> slots(unique.size());
  std::atomic<size_t> cache_hits{0};
  bool quota_stop = false;
  bool stop_all = false;

  Routing routing;
  // Pids of the round's groups, laid out like routing.items so each
  // sub-call sends a contiguous span.
  std::vector<ProfileId> grouped_pids;
  bool first_round = true;
  for (const auto& region : read_regions_) {
    if (quota_stop || stop_all) break;
    // Ring candidates for every slot, computed once per region.
    Route(region, unique, options_.max_read_attempts, &routing);
    for (int attempt = 0; attempt < options_.max_read_attempts && !quota_stop;
         ++attempt) {
      const TimestampMs round_now = deployment_->clock()->NowMs();
      if (ctx.Expired(round_now)) {
        counters_.deadline_exceeded->Increment();
        for (auto& slot : slots) {
          if (!slot.done) {
            slot.status = Status::DeadlineExceeded("client deadline expired");
          }
        }
        stop_all = true;
        break;
      }
      // Group unfinished slots by this attempt's ring owner.
      const size_t groups =
          routing.Group(unique.size(), static_cast<size_t>(attempt),
                        [&](size_t s) { return !slots[s].done; });
      if (groups == 0) break;

      // Rounds after the first need a grant from the retry policy. The
      // representative error is the first unfinished slot's status from the
      // previous round.
      if (!first_round && retry_policy_.enabled()) {
        Status round_error = NoLiveInstance();
        for (const auto& slot : slots) {
          if (!slot.done) {
            if (!slot.status.ok()) round_error = slot.status;
            break;
          }
        }
        if (!PrepareRetry(round_error, ctx)) {
          stop_all = true;
          break;
        }
      }
      first_round = false;

      // Nodes whose breaker re-opened since routing are skipped here; their
      // slots stay unfinished and move to the next ring successor.
      routing.sends.clear();
      for (uint32_t g = 0; g < groups; ++g) {
        const Member& member = routing.members[routing.owners[g]];
        if (member.node == nullptr) continue;
        if (breakers_.enabled() && !member.breaker->AllowRequest(round_now)) {
          const uint32_t first = routing.begin[g];
          const uint32_t last = routing.begin[g + 1];
          counters_.breaker_skips->Increment(last - first);
          for (uint32_t k = first; k < last; ++k) {
            slots[routing.items[k]].status =
                Status::Unavailable("circuit breaker open");
          }
          continue;
        }
        routing.sends.push_back(g);
      }
      grouped_pids.resize(routing.items.size());
      for (size_t k = 0; k < routing.items.size(); ++k) {
        grouped_pids[k] = unique[routing.items[k]];
      }

      // Scatter: one sub-batch RPC per owning node, in parallel. Each
      // sub-call writes a disjoint set of slots, so no lock is needed.
      std::atomic<bool> saw_quota{false};
      Scatter(routing.sends.size(), [&](size_t t) {
        const uint32_t g = routing.sends[t];
        const Member& member = routing.members[routing.owners[g]];
        const uint32_t first = routing.begin[g];
        const uint32_t count = routing.begin[g + 1] - first;
        const std::span<const ProfileId> sub(&grouped_pids[first], count);
        Result<MultiQueryResult> batch = Status::Unavailable("unset");
        Status call_status = member.node->Call(
            call_ctx, options_.request_bytes + count * sizeof(ProfileId),
            options_.response_bytes * count, [&](IpsInstance& instance) {
              batch = instance.MultiQuery(options_.caller, table, sub, spec,
                                          call_ctx);
              return batch.ok() ? Status::OK() : batch.status();
            });
        if (call_status.ok() && batch.ok()) {
          RecordOutcome(member, Status::OK());
          cache_hits.fetch_add(batch->cache_hits, std::memory_order_relaxed);
          for (uint32_t j = 0; j < count; ++j) {
            SlotState& slot = slots[routing.items[first + j]];
            slot.status = std::move(batch->statuses[j]);
            if (slot.status.ok()) {
              slot.done = true;
              slot.result = std::move(batch->results[j]);
            }
          }
        } else {
          // Batch-level failure (node down, quota, unknown table): every
          // slot in the sub-batch shares the cause.
          Status error = call_status.ok() ? batch.status() : call_status;
          RecordOutcome(member, error);
          // Hint-less quota rejections stop the scatter below; a load-shed
          // WITH a retry-after hint is re-offered on the next round, paced
          // by PrepareRetry honoring the hint.
          if (error.IsResourceExhausted() && !error.has_retry_after()) {
            saw_quota.store(true, std::memory_order_relaxed);
          }
          for (uint32_t j = 0; j < count; ++j) {
            slots[routing.items[first + j]].status = error;
          }
        }
      });
      // Quota rejections are not retried: the server told us to back off,
      // and ring successors enforce the same per-caller budget.
      if (saw_quota.load(std::memory_order_relaxed)) quota_stop = true;
    }
  }

  // Gather: expand unique slots back to input order. Each slot's result is
  // moved into its last occurrence; only earlier duplicates are copies.
  std::vector<uint32_t> last_use(unique.size());
  for (size_t i = 0; i < pids.size(); ++i) {
    last_use[slot_of[i]] = static_cast<uint32_t>(i);
  }
  MultiQueryResult out;
  out.results.resize(pids.size());
  out.statuses.assign(pids.size(), Status::OK());
  out.cache_hits = cache_hits.load(std::memory_order_relaxed);
  int64_t failed = 0;
  for (size_t i = 0; i < pids.size(); ++i) {
    SlotState& slot = slots[slot_of[i]];
    if (slot.done) {
      if (slot.result.degraded) ++out.degraded;
      if (last_use[slot_of[i]] == i) {
        out.results[i] = std::move(slot.result);
      } else {
        out.results[i] = slot.result;
      }
    } else {
      out.statuses[i] = slot.status.ok() ? NoLiveInstance() : slot.status;
      ++failed;
    }
  }
  if (out.degraded > 0) {
    counters_.degraded_reads->Increment(static_cast<int64_t>(out.degraded));
  }
  if (failed > 0) counters_.multi_read_errors->Increment(failed);
  return out;
}

Result<QueryResult> IpsClient::GetProfileTopK(
    const std::string& table, ProfileId pid, SlotId slot,
    std::optional<TypeId> type, const TimeRange& range, SortBy sort_by,
    ActionIndex sort_action, size_t k) {
  QuerySpec spec;
  spec.slot = slot;
  spec.type = type;
  spec.time_range = range;
  spec.sort_by = sort_by;
  spec.sort_action = sort_action;
  spec.k = k;
  return Query(table, pid, spec);
}

int64_t IpsClient::requests() const {
  return counters_.read_requests->Value() + counters_.write_requests->Value();
}

int64_t IpsClient::errors() const {
  return counters_.read_errors->Value() + counters_.write_errors->Value();
}

double IpsClient::ErrorRate() const {
  const int64_t total = requests();
  return total == 0 ? 0.0
                    : static_cast<double>(errors()) /
                          static_cast<double>(total);
}

}  // namespace ips
