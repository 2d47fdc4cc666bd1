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

/// One group's RPC as RunRounds hands it to its per-group callable: a
/// node->Call with the request's context, with the sub-call's rpc.dispatch
/// span suspended so it never overlaps rpc.transfer or a server stage.
struct GroupCall {
  Status operator()(size_t request_bytes, size_t response_bytes,
                    const std::function<Status(IpsInstance&)>& handler) const {
    dispatch->reset();
    Status status = node->Call(*ctx, request_bytes, response_bytes, handler);
    dispatch->emplace("rpc.dispatch");
    return status;
  }

  IpsNode* node;
  const CallContext* ctx;
  std::optional<ScopedSpan>* dispatch;
};

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

/// One item's progress through RunRounds.
struct IpsClient::ItemState {
  /// Last error; OK until a node answers.
  Status status;
  /// Served (reads), or accepted by the region in progress (writes).
  bool done = false;
  /// Writes: the regions that accepted the item.
  size_t regions_ok = 0;

  /// The status of an item no node served or accepted.
  Status Error() const { return status.ok() ? NoLiveInstance() : status; }
};

/// The client side of one request's trace: the root span, an rpc.dispatch
/// span over the client-side machinery, and the context sub-calls carry,
/// which node->Call re-installs on whichever thread runs them so every
/// server-side span parents to the root.
struct IpsClient::RequestScope {
  RequestScope(const CallContext& caller_ctx, const char* root_name)
      : install(caller_ctx.trace), root(root_name), ctx(caller_ctx) {
    ctx.trace = CurrentTrace();
    dispatch.emplace("rpc.dispatch");
  }

  TraceInstallScope install;
  ScopedSpan root;
  CallContext ctx;
  std::optional<ScopedSpan> dispatch;
};

template <typename Rpc>
void IpsClient::RunRounds(const std::vector<std::string>& regions,
                          bool per_region, int max_attempts,
                          std::span<const ProfileId> pids,
                          RequestScope* request,
                          std::vector<ItemState>* items, const Rpc& rpc) {
  MaybeRefresh();
  retry_policy_.OnRequestStart();
  const CallContext& ctx = request->ctx;
  Routing routing;
  // Pids of the round's groups, laid out like routing.items so each
  // sub-call sends a contiguous span.
  std::vector<ProfileId> grouped_pids;
  bool first_round = true;
  bool stop_all = false;
  for (const auto& region : regions) {
    if (stop_all) break;
    if (per_region) {
      // Writes offer every item to every region; a region's first round is
      // the write contract, not a retry.
      for (ItemState& item : *items) item.done = false;
      first_round = true;
    }
    Route(region, pids, max_attempts, &routing);
    for (size_t attempt = 0; attempt < routing.attempts; ++attempt) {
      const TimestampMs now = deployment_->clock()->NowMs();
      if (ctx.Expired(now)) {
        counters_.deadline_exceeded->Increment();
        for (ItemState& item : *items) {
          if (!item.done) {
            item.status = Status::DeadlineExceeded("client deadline expired");
          }
        }
        stop_all = true;
        break;
      }
      // Group unfinished items by this attempt's ring successor.
      const size_t groups = routing.Group(
          pids.size(), attempt, [&](size_t i) { return !(*items)[i].done; });
      if (groups == 0) break;

      // Rounds after the first need a grant from the retry policy for the
      // first unfinished item's last error. A load shed with a retry-after
      // hint is granted at the hint's pace without spending budget.
      if (!first_round && retry_policy_.enabled()) {
        const auto unfinished =
            std::find_if(items->begin(), items->end(),
                         [](const ItemState& item) { return !item.done; });
        if (!PrepareRetry(unfinished->Error(), ctx)) {
          stop_all = !per_region;
          break;
        }
      }
      first_round = false;

      // Nodes whose breaker opened since routing are skipped; their items
      // stay unfinished for the next successor.
      routing.sends.clear();
      for (uint32_t g = 0; g < groups; ++g) {
        const Member& member = routing.members[routing.owners[g]];
        if (member.node == nullptr) continue;
        if (breakers_.enabled() && !member.breaker->AllowRequest(now)) {
          const uint32_t first = routing.begin[g];
          const uint32_t last = routing.begin[g + 1];
          counters_.breaker_skips->Increment(last - first);
          for (uint32_t k = first; k < last; ++k) {
            (*items)[routing.items[k]].status =
                Status::Unavailable("circuit breaker open");
          }
          continue;
        }
        routing.sends.push_back(g);
      }
      grouped_pids.resize(routing.items.size());
      for (size_t k = 0; k < routing.items.size(); ++k) {
        grouped_pids[k] = pids[routing.items[k]];
      }

      // One RPC per owning node, in parallel; each sub-call writes a
      // disjoint set of items. The request's dispatch span covers building
      // `sub_call` and is suspended while the caller waits on the scatter; a
      // sub-call the caller runs reports its own (a no-op span on pool
      // workers, which have no trace installed).
      std::atomic<bool> saw_quota{false};
      const std::function<void(size_t)> sub_call = [&](size_t t) {
        std::optional<ScopedSpan> dispatch(std::in_place, "rpc.dispatch");
        const uint32_t g = routing.sends[t];
        const Member& member = routing.members[routing.owners[g]];
        const uint32_t first = routing.begin[g];
        const uint32_t count = routing.begin[g + 1] - first;
        const std::span<const uint32_t> ids(&routing.items[first], count);
        std::vector<Status> statuses;
        const Status status =
            rpc(GroupCall{member.node, &ctx, &dispatch}, ids,
                std::span<const ProfileId>(&grouped_pids[first], count),
                &statuses);
        if (breakers_.enabled()) {
          if (CircuitBreaker::IsNodeFault(status)) {
            member.breaker->RecordFailure(deployment_->clock()->NowMs());
          } else {
            member.breaker->RecordSuccess();
          }
        }
        if (status.IsResourceExhausted() && !status.has_retry_after()) {
          saw_quota.store(true, std::memory_order_relaxed);
        }
        for (uint32_t j = 0; j < count; ++j) {
          ItemState& item = (*items)[ids[j]];
          if (!status.ok()) {
            // A group-level failure (node down, quota, unknown table) is
            // every item's cause.
            item.status = status;
          } else if (statuses[j].ok()) {
            item.done = true;
          } else {
            item.status = std::move(statuses[j]);
          }
        }
      };
      request->dispatch.reset();
      Scatter(routing.sends.size(), sub_call);
      request->dispatch.emplace("rpc.dispatch");
      // A hint-less quota rejection is not retried: ring successors enforce
      // the same per-caller budget.
      if (saw_quota.load(std::memory_order_relaxed)) {
        stop_all = !per_region;
        break;
      }
    }
    if (per_region) {
      for (ItemState& item : *items) {
        if (item.done) ++item.regions_ok;
      }
    }
  }
}

MultiQueryResult IpsClient::ReadBatch(const char* span,
                                      const std::string& table,
                                      std::span<const ProfileId> pids,
                                      const QuerySpec& spec,
                                      const CallContext& ctx) {
  RequestScope request(ctx, span);
  // Estimated payloads for the transport cost model: a fixed request header
  // plus the pids, and one profile's result per pid.
  constexpr size_t kRequestBytes = 256;
  constexpr size_t kResponseBytesPerPid = 2048;

  // Deduplicate while preserving first-seen order: duplicate candidates cost
  // one lookup and fan back out on reassembly.
  std::vector<ProfileId> unique;
  std::vector<uint32_t> slot_of;
  DedupePids(pids, &unique, &slot_of);

  std::vector<ItemState> slots(unique.size());
  std::vector<QueryResult> results(unique.size());
  std::atomic<size_t> cache_hits{0};
  RunRounds(read_regions_, /*per_region=*/false, options_.max_read_attempts,
            unique, &request, &slots,
            [&](const GroupCall& call, std::span<const uint32_t> ids,
                std::span<const ProfileId> sub,
                std::vector<Status>* statuses) {
              Result<MultiQueryResult> batch = Status::Unavailable("unset");
              const Status status = call(
                  kRequestBytes + sub.size() * sizeof(ProfileId),
                  kResponseBytesPerPid * sub.size(),
                  [&](IpsInstance& instance) {
                    batch = instance.MultiQuery(options_.caller, table, sub,
                                                spec, request.ctx);
                    return batch.status();
                  });
              if (!status.ok()) return status;
              cache_hits.fetch_add(batch->cache_hits,
                                   std::memory_order_relaxed);
              for (size_t j = 0; j < ids.size(); ++j) {
                results[ids[j]] = std::move(batch->results[j]);
              }
              *statuses = std::move(batch->statuses);
              return status;
            });

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
  for (size_t i = 0; i < pids.size(); ++i) {
    const uint32_t s = slot_of[i];
    if (!slots[s].done) {
      out.statuses[i] = slots[s].Error();
      continue;
    }
    if (results[s].degraded) ++out.degraded;
    out.results[i] = last_use[s] == i ? std::move(results[s]) : results[s];
  }
  return out;
}

std::vector<IpsClient::ItemState> IpsClient::WriteBatch(
    const char* span, const std::string& caller, const std::string& table,
    const std::vector<MultiAddItem>& items, const CallContext& ctx) {
  RequestScope request(ctx, span);
  std::vector<ProfileId> pids(items.size());
  for (size_t i = 0; i < items.size(); ++i) pids[i] = items[i].pid;

  // Multi-region writing: every region gets every item on its owning node.
  std::vector<ItemState> states(items.size());
  RunRounds(deployment_->region_names(), /*per_region=*/true,
            options_.max_write_attempts, pids, &request, &states,
            [&](const GroupCall& call, std::span<const uint32_t> ids,
                std::span<const ProfileId> /*sub*/,
                std::vector<Status>* statuses) {
              // The transport cost model is size-proportional: charge the
              // encoded size of the records.
              std::vector<MultiAddItem> sub;
              sub.reserve(ids.size());
              size_t request_bytes = 0;
              for (const uint32_t id : ids) {
                sub.push_back(items[id]);
                request_bytes += EstimateAddPayloadBytes(items[id].records);
              }
              Result<MultiAddResult> batch = Status::Unavailable("unset");
              const Status status = call(
                  request_bytes, /*response_bytes=*/64 * sub.size(),
                  [&](IpsInstance& instance) {
                    batch = instance.MultiAdd(caller, table, sub, request.ctx);
                    return batch.status();
                  });
              if (status.ok()) *statuses = std::move(batch->statuses);
              return status;
            });
  return states;
}

void IpsClient::CountReads(const MultiQueryResult& result, Counter* errors) {
  const int64_t failed = std::count_if(
      result.statuses.begin(), result.statuses.end(),
      [](const Status& status) { return !status.ok(); });
  if (failed > 0) errors->Increment(failed);
  if (result.degraded > 0) {
    counters_.degraded_reads->Increment(static_cast<int64_t>(result.degraded));
  }
}

void IpsClient::CountWrites(const std::vector<ItemState>& states,
                            Counter* errors) {
  // An item is acknowledged when at least one region accepted it (weak
  // consistency); partial region coverage is counted, not dropped.
  const size_t regions = deployment_->region_names().size();
  int64_t failed = 0;
  int64_t partial = 0;
  int64_t region_errors = 0;
  for (const ItemState& state : states) {
    region_errors += static_cast<int64_t>(regions - state.regions_ok);
    if (state.regions_ok == 0) {
      ++failed;
    } else if (state.regions_ok < regions) {
      ++partial;
    }
  }
  if (failed > 0) errors->Increment(failed);
  if (partial > 0) counters_.write_partial_regions->Increment(partial);
  if (region_errors > 0) {
    counters_.write_region_errors->Increment(region_errors);
  }
}

Status IpsClient::AddProfile(const std::string& table, ProfileId pid,
                             TimestampMs timestamp, SlotId slot, TypeId type,
                             FeatureId fid, const CountVector& counts) {
  return AddProfiles(table, pid, {{timestamp, slot, type, fid, counts}});
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
  counters_.write_requests->Increment();
  const std::vector<ItemState> states =
      WriteBatch("client.add", caller, table, {{pid, records}}, ctx);
  CountWrites(states, counters_.write_errors);
  // The ack covers the whole deployment, regions a deadline left untried too.
  if (out_ack != nullptr) {
    out_ack->regions_ok = states[0].regions_ok;
    out_ack->regions_total = deployment_->region_names().size();
  }
  // The last error tells quota pacing (back off) from unavailability.
  return states[0].regions_ok > 0 ? Status::OK() : states[0].Error();
}

Result<MultiAddResult> IpsClient::MultiAddAs(
    const std::string& caller, const std::string& table,
    const std::vector<MultiAddItem>& items, const CallContext& ctx) {
  if (items.empty()) return Status::InvalidArgument("empty add batch");
  counters_.multi_write_requests->Increment();
  counters_.multi_write_pids->Increment(static_cast<int64_t>(items.size()));
  const std::vector<ItemState> states =
      WriteBatch("client.multi_add", caller, table, items, ctx);
  CountWrites(states, counters_.multi_write_errors);
  MultiAddResult out;
  out.statuses.reserve(states.size());
  for (const ItemState& state : states) {
    out.statuses.push_back(state.regions_ok > 0 ? Status::OK()
                                                : state.Error());
    if (state.regions_ok > 0) ++out.ok_items;
  }
  return out;
}

Result<QueryResult> IpsClient::Query(const std::string& table, ProfileId pid,
                                     const QuerySpec& spec,
                                     const CallContext& ctx) {
  counters_.read_requests->Increment();
  MultiQueryResult batch = ReadBatch(
      "client.query", table, std::span<const ProfileId>(&pid, 1), spec, ctx);
  CountReads(batch, counters_.read_errors);
  if (!batch.statuses[0].ok()) return std::move(batch.statuses[0]);
  return std::move(batch.results[0]);
}

Result<MultiQueryResult> IpsClient::MultiQuery(const std::string& table,
                                               std::span<const ProfileId> pids,
                                               const QuerySpec& spec,
                                               const CallContext& ctx) {
  if (pids.empty()) return Status::InvalidArgument("empty pid batch");
  counters_.multi_read_requests->Increment();
  counters_.multi_read_pids->Increment(static_cast<int64_t>(pids.size()));
  MultiQueryResult out =
      ReadBatch("client.multi_query", table, pids, spec, ctx);
  CountReads(out, counters_.multi_read_errors);
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

// Batch calls count once per pid or item, the same as one call per pid.
int64_t IpsClient::requests() const {
  return counters_.read_requests->Value() + counters_.write_requests->Value() +
         counters_.multi_read_pids->Value() +
         counters_.multi_write_pids->Value();
}

int64_t IpsClient::errors() const {
  return counters_.read_errors->Value() + counters_.write_errors->Value() +
         counters_.multi_read_errors->Value() +
         counters_.multi_write_errors->Value();
}

double IpsClient::ErrorRate() const {
  const int64_t total = requests();
  return total == 0 ? 0.0
                    : static_cast<double>(errors()) /
                          static_cast<double>(total);
}

}  // namespace ips
