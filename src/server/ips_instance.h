// IpsInstance: one server of the compute-cache layer (Section III). It owns
// a set of profile tables, each backed by the GCache write-back cache over a
// persistent key-value store, with asynchronous compaction, per-caller
// quotas, read-write isolation, and hot-reloadable table configuration.
//
// Read-write isolation (Section III-F): when enabled, add_profile requests
// land in a lightweight write-only ProfileTable; the maintenance loop folds
// the write table into the main (cached) table every few seconds with the
// table's aggregate function. This keeps write traffic off the main table's
// entry locks at the cost of a small data-visibility delay and extra memory,
// both bounded by configuration. A hot switch toggles the feature at runtime.
//
// Maintenance: one thread per instance runs every table's background work —
// eviction above the memory watermark (GCache::SwapOnce, Figs 7-8), dirty
// write-back (GCache::FlushOnce, Fig 9) and the isolation merge. Its
// cadences are wall-clock, not the injected Clock (see MaintenanceLoop).
#ifndef IPS_SERVER_IPS_INSTANCE_H_
#define IPS_SERVER_IPS_INSTANCE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/gcache.h"
#include "cache/coalescer.h"
#include "cache/victim_cache.h"
#include "common/call_context.h"
#include "common/clock.h"
#include "common/config.h"
#include "common/metrics.h"
#include "common/status.h"
#include "compaction/compactor.h"
#include "compaction/manager.h"
#include "core/profile_table.h"
#include "core/table_schema.h"
#include "kvstore/kv_store.h"
#include "query/query.h"
#include "server/overload.h"
#include "server/persistence.h"
#include "server/quota.h"

namespace ips {

struct IpsInstanceOptions {
  /// Instance identity (service discovery registration).
  std::string instance_id = "ips-0";
  GCacheOptions cache;
  CompactionManagerOptions compaction;
  PersisterOptions persistence;
  /// Read-path load coalescer (server-side miss coalescing): concurrent
  /// misses for the same pid share one kv.load, and misses arriving while a
  /// load is on the wire group-commit into the next KvStore::MultiGet.
  /// Disable for ablation (bench_hotkey_skew measures both).
  bool enable_load_broker = true;
  /// Write-path store coalescer (server-side flush coalescing): flush groups
  /// arriving while a store is on the wire group-commit into the next
  /// KvStore::MultiSet, and a hot dirty pid re-flushed while its store is in
  /// flight piggybacks on it (same snapshot) or requeues behind it (newer
  /// snapshot). Only takes effect when the instance persists writes.
  /// Disable for ablation (bench_flush_storm measures both).
  bool enable_store_broker = true;
  /// Compressed L2 victim tier between the cache and the persister: entries
  /// evicted from the (L1) GCache are demoted as encoded bytes after their
  /// write-back instead of dropped, and a later miss promotes them back for
  /// the price of a decode rather than a KV round trip. Admission is
  /// frequency-gated (TinyLFU-style sketch) so one-touch scans cannot
  /// pollute the tier. Off by default: the tier changes what a "miss" costs,
  /// which the coalescing benches measure in isolation; opt in per deployment
  /// (bench_cache_tiers measures both sides).
  bool enable_victim_cache = false;
  VictimCacheOptions victim_cache;
  /// Read-write isolation initial state + merge cadence + memory cap.
  bool isolation_enabled = true;
  int64_t isolation_merge_interval_ms = 2000;
  size_t isolation_memory_limit_bytes = 32 << 20;
  /// Default per-caller QPS when no explicit quota is set (0 = unlimited).
  double default_caller_qps = 0;
  /// Adaptive overload control (queue-aware admission + brown-out), layered
  /// in front of the quota at every admission point. `overload.enabled`
  /// is the master switch (off = quota-only admission, the pre-controller
  /// behaviour and the bench_overload ablation baseline).
  OverloadControllerOptions overload;
  /// When false the instance never writes to the KV store (Section III-G:
  /// in a multi-region deployment only the primary region's instances
  /// persist to the master cluster; the others only read their local
  /// slave). Dirty entries are marked clean without I/O.
  bool persist_writes = true;
  /// When false the maintenance thread does not start: nothing swaps,
  /// flushes or merges until the caller does (tests call SwapOnce,
  /// FlushAll and MergeWriteTablesOnce directly for determinism).
  bool start_background_threads = true;
};

/// One write of the batched add API.
struct AddRecord {
  TimestampMs timestamp = 0;
  SlotId slot = 0;
  TypeId type = 0;
  FeatureId fid = 0;
  CountVector counts;
};

/// One item of the batched write path: every record destined for one
/// profile.
struct MultiAddItem {
  ProfileId pid = 0;
  std::vector<AddRecord> records;
};

/// Result of the batched write path. Entry i aligns with the i-th item;
/// a batch can partially succeed (per-pid statuses), mirroring
/// MultiQueryResult.
struct MultiAddResult {
  std::vector<Status> statuses;
  /// Items whose records were all applied.
  size_t ok_items = 0;
};

/// Result of the batched read path. Entry i aligns with the i-th requested
/// pid. Unknown profiles yield OK + an empty QueryResult, the same contract
/// as single-profile Query (new users are empty profiles, not errors);
/// per-pid statuses carry real failures (storage unavailable, corruption).
struct MultiQueryResult {
  std::vector<Status> statuses;
  std::vector<QueryResult> results;
  /// How many of the pids were served from cache (Table II-style split).
  size_t cache_hits = 0;
  /// How many results are flagged degraded (possibly stale; see
  /// QueryResult::degraded).
  size_t degraded = 0;
};

class IpsInstance {
 public:
  IpsInstance(IpsInstanceOptions options, KvStore* kv, Clock* clock,
              MetricsRegistry* metrics = nullptr);
  ~IpsInstance();

  IpsInstance(const IpsInstance&) = delete;
  IpsInstance& operator=(const IpsInstance&) = delete;

  /// Creates a table. AlreadyExists when the name is taken.
  Status CreateTable(const TableSchema& schema);
  bool HasTable(const std::string& table) const;
  /// Replaces the compaction/truncate/shrink parts of a table's schema at
  /// runtime (the hot-reload path of Section V-b). Actions and granularity
  /// cannot change live.
  Status ReconfigureTable(const TableSchema& schema);

  // --- Write APIs (Section II-B) -------------------------------------

  Status AddProfile(const std::string& caller, const std::string& table,
                    ProfileId pid, TimestampMs timestamp, SlotId slot,
                    TypeId type, FeatureId fid, const CountVector& counts);

  /// Batched variant; one quota charge per record batch.
  Status AddProfiles(const std::string& caller, const std::string& table,
                     ProfileId pid, const std::vector<AddRecord>& records) {
    return AddProfiles(caller, table, pid, records, CallContext{});
  }

  /// Deadline-aware variant: an already-expired context is rejected with
  /// DeadlineExceeded before any work is done. Batch-of-one wrapper over
  /// MultiAdd.
  Status AddProfiles(const std::string& caller, const std::string& table,
                     ProfileId pid, const std::vector<AddRecord>& records,
                     const CallContext& ctx);

  /// Batched write path (the ingestion hot path, mirroring MultiQuery): one
  /// deadline check and ONE quota charge for the whole batch, then each
  /// item's records are applied under its profile's entry lock. Statuses
  /// align with `items`; a batch can partially succeed. The dirty entries it
  /// creates are later drained in batched flushes (one KvStore::MultiSet per
  /// flush group).
  Result<MultiAddResult> MultiAdd(const std::string& caller,
                                  const std::string& table,
                                  const std::vector<MultiAddItem>& items) {
    return MultiAdd(caller, table, items, CallContext{});
  }

  Result<MultiAddResult> MultiAdd(const std::string& caller,
                                  const std::string& table,
                                  const std::vector<MultiAddItem>& items,
                                  const CallContext& ctx);

  // --- Read APIs (Section II-B) --------------------------------------

  Result<QueryResult> GetProfileTopK(const std::string& caller,
                                     const std::string& table, ProfileId pid,
                                     SlotId slot, std::optional<TypeId> type,
                                     const TimeRange& range, SortBy sort_by,
                                     ActionIndex sort_action, size_t k);

  Result<QueryResult> GetProfileFilter(const std::string& caller,
                                       const std::string& table,
                                       ProfileId pid, SlotId slot,
                                       std::optional<TypeId> type,
                                       const TimeRange& range,
                                       const FilterSpec& filter);

  Result<QueryResult> GetProfileDecay(const std::string& caller,
                                      const std::string& table, ProfileId pid,
                                      SlotId slot, std::optional<TypeId> type,
                                      const TimeRange& range,
                                      const DecaySpec& decay);

  /// Fully general query. Implemented as a batch of one over MultiQuery.
  Result<QueryResult> Query(const std::string& caller,
                            const std::string& table, ProfileId pid,
                            const QuerySpec& spec) {
    return Query(caller, table, pid, spec, CallContext{});
  }

  Result<QueryResult> Query(const std::string& caller,
                            const std::string& table, ProfileId pid,
                            const QuerySpec& spec, const CallContext& ctx);

  /// Batched read path (the serving hot path): one quota charge for the
  /// whole batch, hits/misses partitioned against the cache, and all misses
  /// satisfied with a single KvStore::MultiGet. A recommendation request
  /// with hundreds of candidate items pays one storage round trip instead
  /// of one per candidate.
  Result<MultiQueryResult> MultiQuery(const std::string& caller,
                                      const std::string& table,
                                      std::span<const ProfileId> pids,
                                      const QuerySpec& spec) {
    return MultiQuery(caller, table, pids, spec, CallContext{});
  }

  Result<MultiQueryResult> MultiQuery(const std::string& caller,
                                      const std::string& table,
                                      std::span<const ProfileId> pids,
                                      const QuerySpec& spec,
                                      const CallContext& ctx);

  // --- Operations -----------------------------------------------------

  QuotaManager& quota() { return quota_; }
  OverloadController& overload() { return overload_; }

  /// Hot switch for read-write isolation (Section III-F / V-b).
  void SetIsolationEnabled(bool enabled);
  bool IsolationEnabled() const {
    return isolation_enabled_.load(std::memory_order_relaxed);
  }

  /// Merges all tables' write tables into their main tables; returns
  /// profiles merged. Normally driven by the maintenance loop.
  size_t MergeWriteTablesOnce();

  /// Flushes every dirty cache entry (shutdown / controlled failover).
  void FlushAll();

  /// Waits for queued compactions.
  void DrainCompactions();

  /// Ops sweep: synchronously runs a full compaction over every cached
  /// profile of `table` (back-fill cleanup, pre-benchmark steady-state).
  /// Returns profiles compacted.
  Result<size_t> CompactTableNow(const std::string& table);

  /// Kill switch for traffic-triggered compaction across all tables (ops:
  /// pause during heavy back-fill, re-enable afterwards).
  void SetCompactionEnabled(bool enabled);

  /// Cache statistics for one table.
  struct TableStats {
    size_t cached_profiles = 0;
    size_t cache_bytes = 0;
    double hit_ratio = 0.0;
    double memory_usage_ratio = 0.0;
    size_t write_table_profiles = 0;
    size_t write_table_bytes = 0;
    /// Victim-tier occupancy; zero when the tier is disabled.
    size_t l2_cached_profiles = 0;
    size_t l2_bytes = 0;
    /// Pids pending or in flight in each coalescer; zero when ablated.
    size_t load_coalescer_pids = 0;
    size_t store_coalescer_pids = 0;
  };
  Result<TableStats> GetTableStats(const std::string& table) const;

  const std::string& instance_id() const { return options_.instance_id; }
  MetricsRegistry* metrics() { return metrics_; }

  /// Subscribes the instance to `registry` under key
  /// "ips/<instance_id>/tables/<table>": published schema documents are
  /// applied via ReconfigureTable. The registry must outlive the instance
  /// unless DetachConfigRegistry is called first.
  void AttachConfigRegistry(ConfigRegistry* registry);

  /// Drops every subscription made by AttachConfigRegistry. Required before
  /// destroying a registry that does not outlive the instance.
  void DetachConfigRegistry();

 private:
  struct Table {
    TableSchema schema;
    std::mutex schema_mu;  // guards schema replacement on hot reload
    std::unique_ptr<Persister> persister;
    /// Coalescing stages between the cache and the persister, one per side.
    /// Declared before `cache` so they are destroyed after it: the cache's
    /// load and store functions borrow them, and its shutdown flush still
    /// drains through the store side.
    std::unique_ptr<LoadCoalescer> load_coalescer;
    std::unique_ptr<StoreCoalescer> store_coalescer;
    /// Compressed L2 victim tier (when enabled). Declared before `cache` for
    /// the same reason: the cache demotes into it up to its last eviction.
    std::unique_ptr<VictimCache> victim_cache;
    std::unique_ptr<GCache> cache;
    /// Compaction passes construct a local Compactor over a schema snapshot
    /// (see CreateTable) so no shared compactor instance is needed.
    std::unique_ptr<CompactionManager> compaction;
    /// Isolation write buffer (few shards: it is short-lived and small).
    std::unique_ptr<ProfileTable> write_table;
    std::atomic<size_t> write_table_bytes{0};
    /// When the next flush pass is due; read and written only by the
    /// maintenance loop.
    std::chrono::steady_clock::time_point next_flush;
  };

  Table* FindTable(const std::string& table);
  const Table* FindTable(const std::string& table) const;
  /// Snapshot of the table list (tables are never removed).
  std::vector<Table*> Tables() const;

  /// DeadlineExceeded (and the server.deadline_exceeded counter) when the
  /// request's deadline already passed — checked on entry so an expired
  /// request is rejected before any cache/storage work.
  Status CheckDeadline(const CallContext& ctx);

  Status AddDirect(Table& t, ProfileId pid,
                   const std::vector<AddRecord>& records);
  Status AddIsolated(Table& t, ProfileId pid,
                     const std::vector<AddRecord>& records);
  size_t MergeWriteTable(Table& t);

  /// Wakes every kMaintenanceTickMs of wall time until shutdown: merges the
  /// write tables every isolation_merge_interval_ms while isolation is on,
  /// then per table swaps, and flushes every kFlushIntervalMs plus that
  /// cache's flush backoff.
  void MaintenanceLoop();

  /// Serving- and maintenance-path metrics, resolved once at construction
  /// (the registry lookup takes a deployment-wide mutex).
  struct ServingMetrics {
    explicit ServingMetrics(MetricsRegistry* metrics);
    Counter* queries;
    Counter* query_errors;
    Counter* degraded_reads;
    Counter* scratch_reuse;
    Counter* adds;
    Counter* add_errors;
    Counter* deadline_exceeded;
    Histogram* multi_query_micros;
    Histogram* multi_query_batch;
    Histogram* query_micros;
    Histogram* query_micros_hit;
    Histogram* query_micros_miss;
    Histogram* multi_add_micros;
    Histogram* multi_add_batch;
    Histogram* add_micros;
    Counter* slices_merged;
    Counter* slices_truncated;
    Counter* features_shrunk;
    Counter* isolation_overflow;
    Counter* isolation_merged_profiles;
  };

  IpsInstanceOptions options_;
  KvStore* kv_;
  Clock* clock_;
  MetricsRegistry* metrics_;
  MetricsRegistry owned_metrics_;  // used when none injected
  ServingMetrics serving_metrics_;
  QuotaManager quota_;
  OverloadController overload_;

  mutable std::mutex tables_mu_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;

  std::atomic<bool> isolation_enabled_{true};
  std::mutex maintenance_mu_;
  std::condition_variable maintenance_cv_;
  bool shutdown_ = false;  // guarded by maintenance_mu_
  std::thread maintenance_thread_;

  std::vector<int64_t> config_subscriptions_;
  ConfigRegistry* config_registry_ = nullptr;
};

}  // namespace ips

#endif  // IPS_SERVER_IPS_INSTANCE_H_
