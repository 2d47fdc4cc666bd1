#include "server/ips_instance.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"

namespace ips {

namespace {

// Maintenance cadences, in wall time: benchmarks drive a ManualClock far
// ahead of wall time, and flushing on that clock would multiply KV writes.
constexpr int64_t kMaintenanceTickMs = 10;
constexpr int64_t kFlushIntervalMs = 100;

// Per-pid outcome vectors of one MultiQuery, reused by the calling thread's
// next batch so a warm thread allocates none of them.
struct MultiQueryScratch {
  std::vector<Status> cache_statuses;
  std::vector<bool> degraded_flags;
  std::vector<Status> exec_statuses;
};

MultiQueryScratch& ThreadMultiQueryScratch() {
  thread_local MultiQueryScratch scratch;
  return scratch;
}

void ApplyRecords(const std::vector<AddRecord>& records, ReduceFn reduce,
                  ProfileData& profile) {
  for (const auto& r : records) {
    profile.Add(r.timestamp, r.slot, r.type, r.fid, r.counts, reduce).ok();
  }
}

}  // namespace

IpsInstance::ServingMetrics::ServingMetrics(MetricsRegistry* metrics)
    : query{metrics->GetHistogram("server.multi_query_micros"),
            metrics->GetHistogram("server.multi_query_batch"),
            metrics->GetCounter("server.queries"),
            metrics->GetCounter("server.query_errors")},
      add{metrics->GetHistogram("server.multi_add_micros"),
          metrics->GetHistogram("server.multi_add_batch"),
          metrics->GetCounter("server.adds"),
          metrics->GetCounter("server.add_errors")},
      degraded_reads(metrics->GetCounter("server.degraded_reads")),
      scratch_reuse(metrics->GetCounter("query.scratch_reuse")),
      deadline_exceeded(metrics->GetCounter("server.deadline_exceeded")),
      slices_merged(metrics->GetCounter("compaction.slices_merged")),
      slices_truncated(metrics->GetCounter("compaction.slices_truncated")),
      features_shrunk(metrics->GetCounter("compaction.features_shrunk")),
      isolation_overflow(metrics->GetCounter("isolation.overflow")),
      isolation_merged_profiles(
          metrics->GetCounter("isolation.merged_profiles")) {}

IpsInstance::IpsInstance(IpsInstanceOptions options, KvStore* kv, Clock* clock,
                         MetricsRegistry* metrics)
    : options_(options),
      kv_(kv),
      clock_(clock),
      metrics_(metrics != nullptr ? metrics : &owned_metrics_),
      serving_metrics_(metrics_),
      quota_(clock),
      overload_(options.overload, clock, metrics_) {
  isolation_enabled_.store(options_.isolation_enabled,
                           std::memory_order_relaxed);
  if (options_.start_background_threads) {
    maintenance_thread_ = std::thread([this] { MaintenanceLoop(); });
  }
}

IpsInstance::~IpsInstance() {
  {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    shutdown_ = true;
  }
  maintenance_cv_.notify_all();
  if (maintenance_thread_.joinable()) maintenance_thread_.join();
  DetachConfigRegistry();
  // Drain pending writes, then persist the caches.
  MergeWriteTablesOnce();
  DrainCompactions();
  FlushAll();
}

Status IpsInstance::CreateTable(const TableSchema& schema) {
  IPS_RETURN_IF_ERROR(schema.Validate());
  auto table = std::make_unique<Table>();
  table->schema = std::make_shared<const TableSchema>(schema);
  PersisterOptions persist_options = options_.persistence;
  persist_options.metrics = metrics_;
  table->persister =
      std::make_unique<Persister>(schema.name, kv_, persist_options);
  Persister* persister = table->persister.get();

  // The storage seam: one batch load function and one batch store function,
  // composed here. A request's misses go straight to the persister as one
  // LoadBatch: one MultiGet, decoded on the requesting thread. Stores go
  // straight to the persister too: the cache runs one write-back at a time.
  // A non-primary region persists nothing: durability is the primary
  // region's job, so write-backs simply drop the dirty bit.
  LoadFn load_fn = [persister](const std::vector<ProfileId>& pids,
                               std::vector<bool>* out_degraded) {
    return persister->LoadBatch(pids, out_degraded);
  };
  StoreFn store_fn = [](const std::vector<ProfileId>& pids,
                        const std::vector<uint64_t>&,
                        const std::vector<const ProfileData*>&) {
    return std::vector<Status>(pids.size(), Status::OK());
  };
  if (options_.persist_writes) {
    store_fn = [persister](const std::vector<ProfileId>& pids,
                           const std::vector<uint64_t>&,
                           const std::vector<const ProfileData*>& profiles) {
      return persister->StoreBatch(pids, profiles);
    };
  }
  GCacheOptions cache_options = options_.cache;
  cache_options.write_granularity_ms = schema.write_granularity_ms;
  table->cache =
      std::make_unique<GCache>(cache_options, clock_, std::move(load_fn),
                               std::move(store_fn), metrics_);

  Table* raw = table.get();
  table->compaction = std::make_unique<CompactionManager>(
      options_.compaction,
      [this, raw](ProfileId pid, bool full) {
        CompactResident(*raw, pid, full);
      },
      metrics_);
  table->cache->set_compaction(
      [raw](const ProfileData& profile, TimestampMs now_ms) {
        return Compactor(raw->Schema().get()).NextDueMs(profile, now_ms);
      },
      [raw](ProfileId pid) { return raw->compaction->Submit(pid); });

  table->write_table = std::make_unique<ProfileTable>(schema, /*shards=*/8);

  std::lock_guard<std::mutex> lock(tables_mu_);
  auto [it, inserted] = tables_.try_emplace(schema.name, std::move(table));
  if (!inserted) {
    return Status::AlreadyExists("table " + schema.name);
  }
  return Status::OK();
}

bool IpsInstance::HasTable(const std::string& table) const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  return tables_.find(table) != tables_.end();
}

Status IpsInstance::ReconfigureTable(const TableSchema& schema) {
  IPS_RETURN_IF_ERROR(schema.Validate());
  Table* t = FindTable(schema.name);
  if (t == nullptr) return Status::NotFound("table " + schema.name);
  {
    std::lock_guard<std::mutex> lock(t->schema_mu);
    if (schema.actions != t->schema->actions) {
      return Status::InvalidArgument(
          "hot reload cannot change the action schema");
    }
    if (schema.write_granularity_ms != t->schema->write_granularity_ms) {
      return Status::InvalidArgument(
          "hot reload cannot change the write granularity");
    }
    // Only reduce and the compaction policies differ; every resident
    // profile's due time is recomputed on its next touch (below).
    t->schema = std::make_shared<const TableSchema>(schema);
  }
  t->cache->MarkAllCompactionDue();
  metrics_->GetCounter("config.table_reload")->Increment();
  return Status::OK();
}

IpsInstance::Table* IpsInstance::FindTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(tables_mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.get();
}

const IpsInstance::Table* IpsInstance::FindTable(
    const std::string& table) const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<IpsInstance::Table*> IpsInstance::Tables() const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  std::vector<Table*> tables;
  tables.reserve(tables_.size());
  for (const auto& [name, t] : tables_) tables.push_back(t.get());
  return tables;
}

Status IpsInstance::AddProfile(const std::string& caller,
                               const std::string& table, ProfileId pid,
                               TimestampMs timestamp, SlotId slot, TypeId type,
                               FeatureId fid, const CountVector& counts) {
  return AddProfiles(caller, table, pid, {{timestamp, slot, type, fid, counts}});
}

Result<IpsInstance::Table*> IpsInstance::Admit(const std::string& caller,
                                               const std::string& table,
                                               size_t batch_size,
                                               bool is_write,
                                               const CallContext& ctx) {
  // "Queueing": everything that admits the request before any per-profile
  // work. A request that is malformed or names an unknown table is rejected
  // before the overload controller and the quota see it, so it costs the
  // caller nothing. One quota charge covers the whole batch — a
  // 500-candidate request is one admission decision, not 500.
  ScopedSpan queue_span("server.queue");
  const int64_t admit_ns = MonotonicNanos();
  if (ctx.Expired(clock_->NowMs())) {
    serving_metrics_.deadline_exceeded->Increment();
    return Status::DeadlineExceeded("server-side deadline expired");
  }
  if (batch_size == 0) {
    return Status::InvalidArgument(is_write ? "empty add batch"
                                            : "empty pid batch");
  }
  Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  IPS_RETURN_IF_ERROR(overload_.Admit(overload_.TierFor(caller, is_write),
                                      static_cast<double>(batch_size), ctx,
                                      clock_->NowMs()));
  IPS_RETURN_IF_ERROR(quota_.Check(caller));
  overload_.RecordQueueSample((MonotonicNanos() - admit_ns) / 1000);
  return t;
}

void IpsInstance::Complete(const ServingMetrics::PathMetrics& path,
                           int64_t begin_ns, size_t batch_size,
                           int64_t ok_count, int64_t error_count) {
  const int64_t micros = (MonotonicNanos() - begin_ns) / 1000;
  overload_.RecordServiceSample(micros, static_cast<double>(batch_size));
  path.micros->Record(micros);
  path.batch->Record(static_cast<int64_t>(batch_size));
  if (ok_count > 0) path.ok->Increment(ok_count);
  if (error_count > 0) path.errors->Increment(error_count);
}

Status IpsInstance::AddProfiles(const std::string& caller,
                                const std::string& table, ProfileId pid,
                                const std::vector<AddRecord>& records,
                                const CallContext& ctx) {
  IPS_ASSIGN_OR_RETURN(MultiAddResult batch,
                       MultiAdd(caller, table, {{pid, records}}, ctx));
  return batch.statuses[0];
}

Result<MultiAddResult> IpsInstance::MultiAdd(
    const std::string& caller, const std::string& table,
    const std::vector<MultiAddItem>& items, const CallContext& ctx) {
  // Re-install the trace here too: an embedded instance may be written
  // directly, without a Channel hop having installed the context.
  TraceInstallScope trace_install(ctx.trace);
  ScopedSpan server_span("server.add");
  IPS_ASSIGN_OR_RETURN(Table* const admitted,
                       Admit(caller, table, items.size(), /*is_write=*/true,
                             ctx));
  Table& t = *admitted;
  const ReduceFn reduce = t.Schema()->reduce;

  const int64_t begin_ns = MonotonicNanos();
  const bool isolated = isolation_enabled_.load(std::memory_order_relaxed);
  MultiAddResult out;
  out.statuses.assign(items.size(), Status::OK());
  // Items that go to the cache — all of them with isolation off, those the
  // full write buffer turned away with it on — in ONE WithProfilesMutable
  // call: one lookup and at most one load for the whole batch.
  std::vector<ProfileId> direct_pids;
  std::vector<size_t> direct_items;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].records.empty()) {
      out.statuses[i] = Status::InvalidArgument("empty record batch");
      continue;
    }
    if (isolated && BufferIsolated(t, items[i], reduce)) continue;
    direct_pids.push_back(items[i].pid);
    direct_items.push_back(i);
  }
  if (!direct_pids.empty()) {
    std::vector<Status> statuses;
    t.cache->WithProfilesMutable(
        direct_pids,
        [&](size_t j, ProfileData& profile) {
          ApplyRecords(items[direct_items[j]].records, reduce, profile);
        },
        &statuses);
    for (size_t j = 0; j < direct_pids.size(); ++j) {
      out.statuses[direct_items[j]] = statuses[j];
    }
  }

  int64_t ok_records = 0;
  int64_t error_items = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (out.statuses[i].ok()) {
      ++out.ok_items;
      ok_records += static_cast<int64_t>(items[i].records.size());
    } else {
      ++error_items;
    }
  }
  Complete(serving_metrics_.add, begin_ns, items.size(), ok_records,
           error_items);
  return out;
}

bool IpsInstance::BufferIsolated(Table& t, const MultiAddItem& item,
                                 ReduceFn reduce) {
  // Hard cap on the write table's memory (Section III-F): if the buffer is
  // full, the item takes the direct path rather than grow it without bound.
  constexpr size_t kWriteTableMemoryLimitBytes = 32 << 20;
  if (t.write_table_bytes.load(std::memory_order_relaxed) >
      kWriteTableMemoryLimitBytes) {
    serving_metrics_.isolation_overflow->Increment();
    return false;
  }
  t.write_table->WithProfileMutable(item.pid, [&](ProfileData& profile) {
    const size_t before = profile.ApproximateBytes();
    ApplyRecords(item.records, reduce, profile);
    // Counted under the shard lock, so a drain always sees a profile's bytes
    // and the profile together.
    t.write_table_bytes.fetch_add(profile.ApproximateBytes() - before,
                                  std::memory_order_relaxed);
  });
  return true;
}

size_t IpsInstance::MergeWriteTable(Table& t) {
  // Drain the accumulated buffer one shard at a time, then fold it into the
  // cached profiles using the table's aggregate function. The write path
  // stays available throughout: a write landing on an already drained shard
  // stays buffered for the next merge. The byte counter holds the growth of
  // every buffered profile over an empty one, so that is what leaves it.
  const size_t empty_bytes =
      ProfileData(t.write_table->schema().write_granularity_ms)
          .ApproximateBytes();
  std::vector<std::pair<ProfileId, ProfileData>> pending =
      t.write_table->Drain();
  if (pending.empty()) return 0;
  size_t drained_bytes = 0;
  std::vector<ProfileId> pids;
  pids.reserve(pending.size());
  for (const auto& [pid, buffered] : pending) {
    drained_bytes += buffered.ApproximateBytes() - empty_bytes;
    pids.push_back(pid);
  }
  t.write_table_bytes.fetch_sub(drained_bytes, std::memory_order_relaxed);
  const ReduceFn reduce = t.Schema()->reduce;

  // The whole drain folds in one WithProfilesMutable call: one lookup and at
  // most one load for every non-resident profile.
  std::vector<Status> statuses;
  t.cache->WithProfilesMutable(
      pids,
      [&](size_t i, ProfileData& profile) {
        profile.MergeProfile(pending[i].second, reduce);
      },
      &statuses);
  size_t merged = 0;
  for (size_t i = 0; i < pids.size(); ++i) {
    if (!statuses[i].ok()) {
      // The cache could not take the profile (its load failed): put the
      // acknowledged writes back for the next merge instead of dropping
      // them.
      t.write_table->WithProfileMutable(pids[i], [&](ProfileData& profile) {
        const size_t before = profile.ApproximateBytes();
        profile.MergeProfile(pending[i].second, reduce);
        t.write_table_bytes.fetch_add(profile.ApproximateBytes() - before,
                                      std::memory_order_relaxed);
      });
      continue;
    }
    ++merged;
  }
  return merged;
}

size_t IpsInstance::MergeWriteTablesOnce() {
  size_t merged = 0;
  for (Table* t : Tables()) merged += MergeWriteTable(*t);
  if (merged > 0) {
    serving_metrics_.isolation_merged_profiles->Increment(merged);
  }
  return merged;
}

Result<QueryResult> IpsInstance::Query(const std::string& caller,
                                       const std::string& table,
                                       ProfileId pid, const QuerySpec& spec,
                                       const CallContext& ctx) {
  IPS_ASSIGN_OR_RETURN(
      MultiQueryResult batch,
      MultiQuery(caller, table, std::span<const ProfileId>(&pid, 1), spec,
                 ctx));
  IPS_RETURN_IF_ERROR(batch.statuses[0]);
  return std::move(batch.results[0]);
}

Result<MultiQueryResult> IpsInstance::MultiQuery(
    const std::string& caller, const std::string& table,
    std::span<const ProfileId> pids, const QuerySpec& spec,
    const CallContext& ctx) {
  // Re-install the trace here too: an embedded instance may be queried
  // directly, without a Channel hop having installed the context.
  TraceInstallScope trace_install(ctx.trace);
  ScopedSpan server_span("server.query");
  IPS_ASSIGN_OR_RETURN(Table* const t,
                       Admit(caller, table, pids.size(), /*is_write=*/false,
                             ctx));
  QuerySpec effective = spec;
  effective.reduce = t->Schema()->reduce;

  // Per-request setup and (below) result packaging are server overhead like
  // admission: both report under server.queue so the disjoint-stage sum
  // accounts for them. The span is suspended across WithProfiles, which
  // attributes its own stages.
  std::optional<ScopedSpan> overhead_span;
  overhead_span.emplace("server.queue");
  const int64_t begin_ns = MonotonicNanos();
  const TimestampMs now_ms = clock_->NowMs();
  MultiQueryResult out;
  out.results.resize(pids.size());
  out.statuses.assign(pids.size(), Status::OK());

  MultiQueryScratch& batch = ThreadMultiQueryScratch();
  std::vector<Status>& cache_statuses = batch.cache_statuses;
  std::vector<bool>& degraded_flags = batch.degraded_flags;
  std::vector<Status>& exec_statuses = batch.exec_statuses;
  exec_statuses.assign(pids.size(), Status::OK());
  // All computes in the batch share this thread's warmed scratch: after the
  // first query on a worker, the compute core runs allocation-free.
  QueryScratch& scratch = QueryScratch::ThreadLocal();
  uint64_t scratch_reuses = 0;
  overhead_span.reset();
  out.cache_hits = t->cache->WithProfiles(
      pids,
      [&](size_t i, const ProfileData& profile) {
        ScopedSpan compute_span("feature.compute");
        if (scratch.uses > 0) ++scratch_reuses;
        Status exec = ExecuteQueryInto(profile, effective, now_ms, &scratch,
                                       &out.results[i]);
        if (!exec.ok()) exec_statuses[i] = exec;
      },
      &cache_statuses, &degraded_flags);
  overhead_span.emplace("server.queue");
  if (scratch_reuses > 0) {
    serving_metrics_.scratch_reuse->Increment(
        static_cast<int64_t>(scratch_reuses));
  }
  for (size_t i = 0; i < pids.size(); ++i) {
    if (degraded_flags[i] && cache_statuses[i].ok() &&
        exec_statuses[i].ok()) {
      out.results[i].degraded = true;
      ++out.degraded;
    }
  }
  if (out.degraded > 0) {
    serving_metrics_.degraded_reads->Increment(
        static_cast<int64_t>(out.degraded));
  }

  int64_t ok_count = 0;
  int64_t error_count = 0;
  for (size_t i = 0; i < pids.size(); ++i) {
    if (cache_statuses[i].IsNotFound()) {
      // Unknown profile: an empty result, not an error — recommendation
      // callers treat new users as empty profiles.
      ++ok_count;
      continue;
    }
    if (!cache_statuses[i].ok()) {
      out.statuses[i] = cache_statuses[i];
      ++error_count;
      continue;
    }
    if (!exec_statuses[i].ok()) {
      out.statuses[i] = exec_statuses[i];
      ++error_count;
      continue;
    }
    ++ok_count;
  }
  Complete(serving_metrics_.query, begin_ns, pids.size(), ok_count,
           error_count);
  return out;
}

Result<QueryResult> IpsInstance::GetProfileTopK(
    const std::string& caller, const std::string& table, ProfileId pid,
    SlotId slot, std::optional<TypeId> type, const TimeRange& range,
    SortBy sort_by, ActionIndex sort_action, size_t k) {
  QuerySpec spec;
  spec.slot = slot;
  spec.type = type;
  spec.time_range = range;
  spec.sort_by = sort_by;
  spec.sort_action = sort_action;
  spec.k = k;
  return Query(caller, table, pid, spec);
}

Result<QueryResult> IpsInstance::GetProfileFilter(
    const std::string& caller, const std::string& table, ProfileId pid,
    SlotId slot, std::optional<TypeId> type, const TimeRange& range,
    const FilterSpec& filter) {
  QuerySpec spec;
  spec.slot = slot;
  spec.type = type;
  spec.time_range = range;
  spec.filter = filter;
  spec.sort_by = SortBy::kFeatureId;
  return Query(caller, table, pid, spec);
}

Result<QueryResult> IpsInstance::GetProfileDecay(
    const std::string& caller, const std::string& table, ProfileId pid,
    SlotId slot, std::optional<TypeId> type, const TimeRange& range,
    const DecaySpec& decay) {
  QuerySpec spec;
  spec.slot = slot;
  spec.type = type;
  spec.time_range = range;
  spec.decay = decay;
  return Query(caller, table, pid, spec);
}

void IpsInstance::SetIsolationEnabled(bool enabled) {
  const bool was =
      isolation_enabled_.exchange(enabled, std::memory_order_relaxed);
  if (was && !enabled) {
    // Turning isolation off: drain buffered writes immediately so nothing
    // sits invisible in the write tables.
    MergeWriteTablesOnce();
  }
  metrics_->GetCounter("isolation.switch")->Increment();
}

void IpsInstance::FlushAll() {
  for (Table* t : Tables()) t->cache->FlushAll();
}

void IpsInstance::DrainCompactions() {
  for (Table* t : Tables()) t->compaction->Drain();
}

void IpsInstance::SetCompactionEnabled(bool enabled) {
  for (Table* t : Tables()) t->compaction->SetEnabled(enabled);
}

bool IpsInstance::CompactResident(Table& t, ProfileId pid, bool full) {
  // One immutable schema snapshot per pass. The off-lock mutate path lets
  // serving writes and flushes overlap the pass; a pass that keeps losing
  // the race to them finishes under the entry lock rather than give up, so
  // it never leaves the profile due for a second pass.
  const std::shared_ptr<const TableSchema> schema = t.Schema();
  const Compactor compactor(schema.get());
  CompactionStats stats;
  const Status status = t.cache->WithProfileOffLockMutate(
      pid,
      [&](ProfileData& profile) {
        stats = full ? compactor.FullCompact(profile, clock_->NowMs())
                     : compactor.PartialCompact(profile, clock_->NowMs());
        return stats.AnyWork();
      },
      /*max_retries=*/2);
  // Only committed work counts: on an abandoned pass `stats` holds the
  // discarded attempt's numbers.
  if (!status.ok() || !stats.AnyWork()) return false;
  serving_metrics_.slices_merged->Increment(stats.slices_merged);
  serving_metrics_.slices_truncated->Increment(stats.slices_truncated);
  serving_metrics_.features_shrunk->Increment(stats.features_shrunk);
  return true;
}

Result<size_t> IpsInstance::CompactTableNow(const std::string& table) {
  Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  // The triggered pass over every resident profile; safe under live
  // traffic, and an unchanged profile stays clean.
  size_t compacted = 0;
  for (ProfileId pid : t->cache->CachedIds()) {
    if (CompactResident(*t, pid, /*full=*/true)) ++compacted;
  }
  return compacted;
}

Result<IpsInstance::TableStats> IpsInstance::GetTableStats(
    const std::string& table) const {
  const Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  TableStats stats;
  stats.cached_profiles = t->cache->EntryCount();
  stats.cache_bytes = t->cache->MemoryBytes();
  stats.hit_ratio = t->cache->HitRatio();
  stats.memory_usage_ratio = t->cache->MemoryUsageRatio();
  stats.write_table_profiles = t->write_table->ProfileCount();
  stats.write_table_bytes =
      t->write_table_bytes.load(std::memory_order_relaxed);
  return stats;
}

void IpsInstance::DetachConfigRegistry() {
  if (config_registry_ == nullptr) return;
  for (int64_t id : config_subscriptions_) {
    config_registry_->Unsubscribe(id);
  }
  config_subscriptions_.clear();
  config_registry_ = nullptr;
}

void IpsInstance::AttachConfigRegistry(ConfigRegistry* registry) {
  config_registry_ = registry;

  // Per-caller quotas (Section V-b): a document {"caller": qps, ...};
  // callers absent from the document keep their current quota, a qps of 0
  // removes the explicit quota.
  config_subscriptions_.push_back(registry->Subscribe(
      "ips/" + options_.instance_id + "/quotas",
      [this](const ConfigValue& doc) {
        if (!doc.is_object()) return;
        for (const auto& [caller, qps] : doc.members()) {
          const double rate = qps.AsDouble(0);
          if (rate <= 0) {
            quota_.RemoveQuota(caller);
          } else {
            quota_.SetQuota(caller, rate);
          }
        }
        metrics_->GetCounter("config.quota_reload")->Increment();
      }));

  // Per-caller criticality for the brown-out ladder (same shape as quotas):
  // a document {"caller": "critical"|"read"|"write"|"bulk", ...}. Any other
  // value removes the explicit mark, reverting the caller to the read/write
  // defaults.
  config_subscriptions_.push_back(registry->Subscribe(
      "ips/" + options_.instance_id + "/tiers",
      [this](const ConfigValue& doc) {
        if (!doc.is_object()) return;
        for (const auto& [caller, tier] : doc.members()) {
          std::optional<RequestTier> parsed =
              tier.is_string() ? ParseRequestTier(tier.AsString())
                               : std::nullopt;
          if (parsed.has_value()) {
            overload_.SetCallerTier(caller, *parsed);
          } else {
            overload_.RemoveCallerTier(caller);
          }
        }
        metrics_->GetCounter("config.tier_reload")->Increment();
      }));

  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    for (auto& [name, t] : tables_) names.push_back(name);
  }
  for (const auto& name : names) {
    const std::string key =
        "ips/" + options_.instance_id + "/tables/" + name;
    config_subscriptions_.push_back(
        registry->Subscribe(key, [this](const ConfigValue& doc) {
          Result<TableSchema> schema = ParseTableSchema(doc);
          if (!schema.ok()) {
            IPS_LOG(Warn) << "rejected table config: "
                          << schema.status().ToString();
            return;
          }
          Status status = ReconfigureTable(*schema);
          if (!status.ok()) {
            IPS_LOG(Warn) << "table reconfigure failed: "
                          << status.ToString();
          }
        }));
  }
}

void IpsInstance::MaintenanceLoop() {
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  steady_clock::time_point last_merge = steady_clock::now();
  std::unique_lock<std::mutex> lock(maintenance_mu_);
  while (!maintenance_cv_.wait_for(lock, milliseconds(kMaintenanceTickMs),
                                   [this] { return shutdown_; })) {
    lock.unlock();
    // Merge first, so the profiles it dirties can flush in the same tick.
    const steady_clock::time_point now = steady_clock::now();
    const milliseconds merge_interval(options_.isolation_merge_interval_ms);
    if (isolation_enabled_.load(std::memory_order_relaxed) &&
        now - last_merge >= merge_interval) {
      MergeWriteTablesOnce();
      last_merge = now;
    }
    for (Table* t : Tables()) {
      t->cache->SwapOnce();  // a no-op below the high watermark
      if (steady_clock::now() < t->next_flush) continue;
      t->cache->FlushOnce();
      t->next_flush =
          steady_clock::now() +
          milliseconds(kFlushIntervalMs + t->cache->FlushBackoffMs());
    }
    lock.lock();
  }
}

}  // namespace ips
