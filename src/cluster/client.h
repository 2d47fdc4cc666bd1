// Unified IPS client (Section III): the single library every upstream
// application uses. It refreshes the instance list from service discovery
// periodically, routes each profile id with consistent hashing, retries
// failed calls on ring successors, prefers the local region for reads, and
// fans writes out to every region (Fig 15). Client-observed errors feed the
// error-rate metric of Fig 17.
#ifndef IPS_CLUSTER_CLIENT_H_
#define IPS_CLUSTER_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/circuit_breaker.h"
#include "cluster/consistent_hash.h"
#include "cluster/deployment.h"
#include "cluster/retry_policy.h"
#include "common/call_context.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "query/query.h"

namespace ips {

struct IpsClientOptions {
  std::string caller = "default";
  std::string local_region;
  /// Region preference order after the local one (failover targets).
  std::vector<std::string> failover_regions;
  /// Attempts per read, each on the next ring successor.
  int max_read_attempts = 2;
  /// Attempts per write per region.
  int max_write_attempts = 2;
  /// Discovery view refresh interval (simulated time).
  int64_t refresh_interval_ms = 2000;
  /// Deadline applied to requests whose caller passes no explicit
  /// CallContext; 0 disables (no deadline).
  int64_t default_timeout_ms = 0;
  /// Retry classification / backoff / budget. Attempts beyond the first are
  /// granted by this policy; disabling it restores blind successor loops.
  RetryPolicyOptions retry;
  /// Per-node circuit breaking, consulted during candidate selection.
  CircuitBreakerOptions breaker;
};

/// Per-region outcome of a multi-region write. A write is acknowledged when
/// at least one region accepted it, but regions_ok < regions_total means
/// some region silently missed the update (its readers serve stale data
/// until replication repair) — callers that care must check `complete()`.
struct WriteAck {
  size_t regions_ok = 0;
  size_t regions_total = 0;
  bool complete() const { return regions_ok == regions_total; }
};

/// Estimated wire size of an encoded add-record batch: the size-proportional
/// transport cost model (Table II) has to see the real payload, not a fixed
/// per-request constant, or large writes are charged like small ones.
size_t EstimateAddPayloadBytes(const std::vector<AddRecord>& records);

class IpsClient {
 public:
  /// Starts the client's fan-out pool (one worker per hardware thread);
  /// the destructor joins it.
  IpsClient(IpsClientOptions options, Deployment* deployment);

  /// Write path: a batch-of-one MultiAdd. Succeeds when at least one region
  /// acknowledged (the weak-consistency contract).
  Status AddProfile(const std::string& table, ProfileId pid,
                    TimestampMs timestamp, SlotId slot, TypeId type,
                    FeatureId fid, const CountVector& counts);

  Status AddProfiles(const std::string& table, ProfileId pid,
                     const std::vector<AddRecord>& records);

  /// AddProfiles under an explicit caller identity (e.g. a bulk-import job
  /// writing under its own quota while sharing the client plumbing).
  Status AddProfilesAs(const std::string& caller, const std::string& table,
                       ProfileId pid, const std::vector<AddRecord>& records) {
    return AddProfilesAs(caller, table, pid, records, DefaultContext());
  }

  /// `out_ack`, when non-null, reports how many regions accepted the write;
  /// a partial multi-region write still returns OK (weak-consistency
  /// contract) but is visible through the ack and the
  /// `client.write_partial_regions` counter.
  Status AddProfilesAs(const std::string& caller, const std::string& table,
                       ProfileId pid, const std::vector<AddRecord>& records,
                       const CallContext& ctx, WriteAck* out_ack = nullptr);

  /// Batched write path, the one every write takes: in every region, items
  /// are grouped by owning instance and each group goes out as ONE MultiAdd
  /// RPC (see RunRounds). An item is OK when at least one region accepted
  /// it; items only some regions accepted bump
  /// `client.write_partial_regions`.
  Result<MultiAddResult> MultiAdd(const std::string& table,
                                  const std::vector<MultiAddItem>& items) {
    return MultiAddAs(options_.caller, table, items, DefaultContext());
  }

  Result<MultiAddResult> MultiAdd(const std::string& table,
                                  const std::vector<MultiAddItem>& items,
                                  const CallContext& ctx) {
    return MultiAddAs(options_.caller, table, items, ctx);
  }

  Result<MultiAddResult> MultiAddAs(const std::string& caller,
                                    const std::string& table,
                                    const std::vector<MultiAddItem>& items,
                                    const CallContext& ctx);

  /// True when some live node in any region has the table (pre-flight check
  /// for batch jobs).
  bool HasTableAnywhere(const std::string& table);

  /// Read path: a batch-of-one MultiQuery.
  Result<QueryResult> Query(const std::string& table, ProfileId pid,
                            const QuerySpec& spec) {
    return Query(table, pid, spec, DefaultContext());
  }

  Result<QueryResult> Query(const std::string& table, ProfileId pid,
                            const QuerySpec& spec, const CallContext& ctx);

  /// Batched read path, the one every read takes: pids are deduplicated,
  /// grouped by owning instance and each group goes out as ONE MultiQuery
  /// RPC, local region first, then failover regions (see RunRounds).
  /// Results reassemble in input order with per-pid statuses; duplicate
  /// pids share one lookup.
  Result<MultiQueryResult> MultiQuery(const std::string& table,
                                      std::span<const ProfileId> pids,
                                      const QuerySpec& spec) {
    return MultiQuery(table, pids, spec, DefaultContext());
  }

  Result<MultiQueryResult> MultiQuery(const std::string& table,
                                      std::span<const ProfileId> pids,
                                      const QuerySpec& spec,
                                      const CallContext& ctx);

  Result<QueryResult> GetProfileTopK(const std::string& table, ProfileId pid,
                                     SlotId slot, std::optional<TypeId> type,
                                     const TimeRange& range, SortBy sort_by,
                                     ActionIndex sort_action, size_t k);

  /// Forces a discovery refresh now (tests; normally interval-driven).
  void RefreshView();

  /// Observability: client-side requests and errors, batch calls counted
  /// once per pid or item.
  int64_t requests() const;
  int64_t errors() const;
  double ErrorRate() const;

  /// Fault-tolerance state (tests / observability).
  RetryPolicy& retry_policy() { return retry_policy_; }
  CircuitBreakerRegistry& breakers() { return breakers_; }

 private:
  /// A ring member resolved once per discovery refresh, so calls route by
  /// member index with no node-id string lookups.
  struct Member {
    /// Null when discovery lists an id the deployment does not know.
    IpsNode* node = nullptr;
    CircuitBreaker* breaker = nullptr;
  };

  /// Routing state of one region: its ring and, in ring.members() order
  /// (sorted by node id), each member's node and breaker.
  struct RegionView {
    ConsistentHashRing ring;
    std::vector<Member> members;
  };

  /// One request's routing in one region (filled by Route) plus the
  /// per-round grouping of its items by owner (filled by Group). Reused
  /// across the rounds and regions of a request.
  struct Routing {
    static constexpr uint32_t kNone = UINT32_MAX;

    /// Snapshot of the region's members.
    std::vector<Member> members;
    /// Row i holds item i's candidate member indices in ring order, best
    /// first; kNone pads rows shorter than `attempts`.
    std::vector<uint32_t> candidates;
    size_t stride = 0;
    size_t attempts = 0;

    /// Groups of the last Group call: owners[g] is a member index, and
    /// items[begin[g]..begin[g+1]) the ascending item ids it owns.
    std::vector<uint32_t> owners;
    std::vector<uint32_t> begin;
    std::vector<uint32_t> items;
    /// Groups that go out this round (indices into owners).
    std::vector<uint32_t> sends;
    /// Scratch, one entry per member: breaker verdicts in Route, counting
    /// sort offsets in Group.
    std::vector<uint32_t> per_member;

    uint32_t Candidate(size_t item, size_t attempt) const {
      return attempt < attempts ? candidates[item * stride + attempt] : kNone;
    }
    /// Buckets every item i < n with `pending(i)` and a candidate at
    /// `attempt` by that candidate. Groups come out in member order, i.e.
    /// sorted by node id, so the scatter order is deterministic. Returns
    /// the number of groups.
    template <typename Pending>
    size_t Group(size_t n, size_t attempt, const Pending& pending);
  };

  /// Routes `pids` in `region`: up to `attempts` ring successors each, with
  /// open-breaker nodes filtered out (the ring is probed deeper to keep
  /// `attempts` usable candidates; if breakers reject every successor of a
  /// pid, its plain ring order is kept as a last resort). Every pid is
  /// resolved under one `mu_` hold.
  void Route(const std::string& region, std::span<const ProfileId> pids,
             int attempts, Routing* out);
  void MaybeRefresh();

  /// Runs task(0) .. task(n - 1) in parallel and returns once all have
  /// finished. Every task but the last goes to `pool_`; the caller runs the
  /// last itself, then claims and runs any submitted task no worker has
  /// started, so progress never depends on the pool's size or load. A task
  /// runs exactly once, on whichever thread claims it; one the pool rejects
  /// is simply left for the caller to claim.
  void Scatter(size_t n, const std::function<void(size_t)>& task);

  CallContext DefaultContext() const {
    return CallContext::WithTimeout(*deployment_->clock(),
                                    options_.default_timeout_ms);
  }

  /// Gate for every attempt after the first: classifies `last_error`,
  /// withdraws retry budget and sleeps the jittered backoff (clamped to the
  /// deadline). False when the request must stop retrying.
  bool PrepareRetry(const Status& last_error, const CallContext& ctx);

  struct ItemState;
  struct RequestScope;

  /// The round loop of every request. Per region, one round per attempt:
  /// deadline check, unfinished items grouped by that attempt's ring
  /// successor, a PrepareRetry grant for all but the first round, breaker
  /// skips, then `rpc(call, ids, pids, &statuses)` per group in parallel:
  /// one `call` for items `ids`, returning the call status and, on OK, a
  /// status per item. A hinted shed leaves its items to the next round; a
  /// hint-less quota rejection or a refused retry stops the rounds.
  /// `per_region` (writes): items are done per region and counted in
  /// `regions_ok`, each region's first round is free, and a stop ends only
  /// the region. Otherwise (reads) a stop ends the request.
  template <typename Rpc>
  void RunRounds(const std::vector<std::string>& regions, bool per_region,
                 int max_attempts, std::span<const ProfileId> pids,
                 RequestScope* request, std::vector<ItemState>* items,
                 const Rpc& rpc);

  /// The code behind Query and MultiQuery, under root span `span`.
  MultiQueryResult ReadBatch(const char* span, const std::string& table,
                             std::span<const ProfileId> pids,
                             const QuerySpec& spec, const CallContext& ctx);

  /// The code behind AddProfilesAs and MultiAddAs; per-item final states.
  std::vector<ItemState> WriteBatch(const char* span, const std::string& caller,
                                    const std::string& table,
                                    const std::vector<MultiAddItem>& items,
                                    const CallContext& ctx);

  /// Outcome counters of one call, with the entry point's own `errors`.
  void CountReads(const MultiQueryResult& result, Counter* errors);
  void CountWrites(const std::vector<ItemState>& states, Counter* errors);

  /// Hot-path counters, resolved once at construction (the registry lookup
  /// takes a deployment-wide mutex).
  struct Counters {
    explicit Counters(MetricsRegistry* metrics);
    Counter* read_requests;
    Counter* read_errors;
    Counter* write_requests;
    Counter* write_errors;
    Counter* write_region_errors;
    Counter* write_partial_regions;
    Counter* multi_read_requests;
    Counter* multi_read_pids;
    Counter* multi_read_errors;
    Counter* multi_write_requests;
    Counter* multi_write_pids;
    Counter* multi_write_errors;
    Counter* degraded_reads;
    Counter* deadline_exceeded;
    Counter* breaker_skips;
    Counter* retries;
    Counter* retry_budget_exhausted;
    Counter* throttle_backoffs;
  };

  IpsClientOptions options_;
  Deployment* deployment_;
  Counters counters_;
  RetryPolicy retry_policy_;
  CircuitBreakerRegistry breakers_;
  /// Read region preference: local first, then failover regions in order
  /// (every region when neither is configured).
  std::vector<std::string> read_regions_;

  std::mutex mu_;
  /// region -> routing view over that region's live instances.
  std::unordered_map<std::string, RegionView> regions_;
  TimestampMs last_refresh_ms_ = -1;

  /// Fan-out workers for Scatter. Declared last, so its workers are joined
  /// before any other member is destroyed.
  ThreadPool pool_;
};

}  // namespace ips

#endif  // IPS_CLUSTER_CLIENT_H_
