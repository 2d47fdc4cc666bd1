#include "server/ips_instance.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"

namespace ips {

IpsInstance::ServingMetrics::ServingMetrics(MetricsRegistry* metrics)
    : queries(metrics->GetCounter("server.queries")),
      query_errors(metrics->GetCounter("server.query_errors")),
      degraded_reads(metrics->GetCounter("server.degraded_reads")),
      scratch_reuse(metrics->GetCounter("query.scratch_reuse")),
      adds(metrics->GetCounter("server.adds")),
      add_errors(metrics->GetCounter("server.add_errors")),
      deadline_exceeded(metrics->GetCounter("server.deadline_exceeded")),
      multi_query_micros(metrics->GetHistogram("server.multi_query_micros")),
      multi_query_batch(metrics->GetHistogram("server.multi_query_batch")),
      query_micros(metrics->GetHistogram("server.query_micros")),
      query_micros_hit(metrics->GetHistogram("server.query_micros_hit")),
      query_micros_miss(metrics->GetHistogram("server.query_micros_miss")),
      multi_add_micros(metrics->GetHistogram("server.multi_add_micros")),
      multi_add_batch(metrics->GetHistogram("server.multi_add_batch")),
      add_micros(metrics->GetHistogram("server.add_micros")) {}

IpsInstance::IpsInstance(IpsInstanceOptions options, KvStore* kv, Clock* clock,
                         MetricsRegistry* metrics)
    : options_(options),
      kv_(kv),
      clock_(clock),
      metrics_(metrics != nullptr ? metrics : &owned_metrics_),
      serving_metrics_(metrics_),
      quota_(clock, options.default_caller_qps),
      overload_(options.overload, clock, metrics_) {
  isolation_enabled_.store(options_.isolation_enabled,
                           std::memory_order_relaxed);
  if (options_.start_background_threads) {
    merger_thread_ = std::thread([this] { MergerLoop(); });
  }
}

IpsInstance::~IpsInstance() {
  shutdown_.store(true, std::memory_order_relaxed);
  merger_cv_.notify_all();
  if (merger_thread_.joinable()) merger_thread_.join();
  DetachConfigRegistry();
  // Drain pending writes, then persist the caches.
  MergeWriteTablesOnce();
  DrainCompactions();
  FlushAll();
}

Status IpsInstance::CreateTable(const TableSchema& schema) {
  IPS_RETURN_IF_ERROR(schema.Validate());
  auto table = std::make_unique<Table>();
  table->schema = schema;
  PersisterOptions persist_options = options_.persistence;
  persist_options.metrics = metrics_;
  table->persister =
      std::make_unique<Persister>(schema.name, kv_, persist_options);
  Persister* persister = table->persister.get();

  // The storage seam: one batch load function and one batch store function,
  // composed here. With the broker flags on (the default) each goes through
  // its side's Coalescer — concurrent requests' misses, and concurrent flush
  // and eviction write-backs, share one LoadBatch / StoreBatch round trip,
  // and a hot pid already on the wire is joined instead of refetched or
  // rewritten. With a flag off the cache calls the persister directly. A
  // non-primary region persists nothing: durability is the primary region's
  // job, so write-backs simply drop the dirty bit. The instance owns the
  // coalescers; the cache's functions only borrow them.
  LoadFn load_fn = [persister](const std::vector<ProfileId>& pids,
                               std::vector<bool>* out_degraded, TimestampMs) {
    return persister->LoadBatch(pids, out_degraded);
  };
  if (options_.enable_load_broker) {
    table->load_coalescer = std::make_unique<LoadCoalescer>(
        [persister](const std::vector<ProfileId>& pids,
                    const std::vector<const ProfileData*>&,
                    std::vector<bool>* out_degraded) {
          return persister->LoadBatch(pids, out_degraded);
        },
        clock_, metrics_);
    load_fn = [coalescer = table->load_coalescer.get()](
                  const std::vector<ProfileId>& pids,
                  std::vector<bool>* out_degraded, TimestampMs deadline_ms) {
      return coalescer->Submit(pids, {}, {}, out_degraded, deadline_ms);
    };
  }
  StoreFn store_fn = [](const std::vector<ProfileId>& pids,
                        const std::vector<uint64_t>&,
                        const std::vector<const ProfileData*>&) {
    return std::vector<Status>(pids.size(), Status::OK());
  };
  if (options_.persist_writes && options_.enable_store_broker) {
    table->store_coalescer = std::make_unique<StoreCoalescer>(
        [persister](const std::vector<ProfileId>& pids,
                    const std::vector<const ProfileData*>& profiles,
                    std::vector<bool>*) {
          return persister->StoreBatch(pids, profiles);
        },
        clock_, metrics_);
    store_fn = [coalescer = table->store_coalescer.get()](
                   const std::vector<ProfileId>& pids,
                   const std::vector<uint64_t>& epochs,
                   const std::vector<const ProfileData*>& profiles) {
      return coalescer->Submit(pids, epochs, profiles);
    };
  } else if (options_.persist_writes) {
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

  // The compressed L2 victim tier sits between the cache and the persister:
  // eviction demotes written-back entries as the persister's compressed
  // block bytes; a later miss promotes them back for a decode instead of a
  // KV round trip. The instance owns the tier; the cache only borrows it.
  if (options_.enable_victim_cache) {
    table->victim_cache =
        std::make_unique<VictimCache>(options_.victim_cache, metrics_);
    table->cache->set_victim_cache(
        table->victim_cache.get(),
        [persister](const ProfileData& profile, std::string* out) {
          persister->EncodeForCache(profile, out);
        },
        [persister](std::string_view bytes, ProfileData* profile) {
          return persister->DecodeCached(bytes, profile);
        });
  }

  Table* raw = table.get();
  table->compaction = std::make_unique<CompactionManager>(
      options_.compaction, clock_,
      [this, raw](ProfileId pid, bool full) {
        // Snapshot the schema under its lock, then run the whole pass
        // against the copy: neither a hot reload nor another compaction is
        // blocked while this pass merges (the old shape held schema_mu
        // across the pass, serializing all compactions of a table onto one
        // core no matter how many drain workers ran). The pass itself goes
        // through the off-lock mutate path, so serving writes and flushes
        // of the same profile overlap it too; a lost epoch race or an
        // evicted/non-resident pid just abandons the pass — later traffic
        // re-triggers.
        TableSchema schema_copy;
        {
          std::lock_guard<std::mutex> schema_lock(raw->schema_mu);
          schema_copy = raw->schema;
        }
        Compactor compactor(&schema_copy);
        CompactionStats stats;
        const Status pass_status = raw->cache->WithProfileOffLockMutate(
            pid, [&](ProfileData& profile) {
              stats = full ? compactor.FullCompact(profile, clock_->NowMs())
                           : compactor.PartialCompact(profile, clock_->NowMs());
              return stats.AnyWork();
            });
        // Only count committed work: on an abandoned pass (epoch-race retries
        // exhausted, pid evicted mid-pass) `stats` holds the discarded
        // attempt's numbers.
        if (pass_status.ok() && stats.AnyWork()) {
          metrics_->GetCounter("compaction.slices_merged")
              ->Increment(stats.slices_merged);
          metrics_->GetCounter("compaction.slices_truncated")
              ->Increment(stats.slices_truncated);
          metrics_->GetCounter("compaction.features_shrunk")
              ->Increment(stats.features_shrunk);
        }
      },
      metrics_);

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
  std::lock_guard<std::mutex> lock(t->schema_mu);
  if (schema.actions != t->schema.actions) {
    return Status::InvalidArgument(
        "hot reload cannot change the action schema");
  }
  if (schema.write_granularity_ms != t->schema.write_granularity_ms) {
    return Status::InvalidArgument(
        "hot reload cannot change the write granularity");
  }
  t->schema.reduce = schema.reduce;
  t->schema.time_dimensions = schema.time_dimensions;
  t->schema.truncate = schema.truncate;
  t->schema.shrink = schema.shrink;
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

Status IpsInstance::AddProfile(const std::string& caller,
                               const std::string& table, ProfileId pid,
                               TimestampMs timestamp, SlotId slot, TypeId type,
                               FeatureId fid, const CountVector& counts) {
  AddRecord record;
  record.timestamp = timestamp;
  record.slot = slot;
  record.type = type;
  record.fid = fid;
  record.counts = counts;
  return AddProfiles(caller, table, pid, {record});
}

Status IpsInstance::CheckDeadline(const CallContext& ctx) {
  if (ctx.Expired(clock_->NowMs())) {
    serving_metrics_.deadline_exceeded->Increment();
    return Status::DeadlineExceeded("server-side deadline expired");
  }
  return Status::OK();
}

Status IpsInstance::AddProfiles(const std::string& caller,
                                const std::string& table, ProfileId pid,
                                const std::vector<AddRecord>& records,
                                const CallContext& ctx) {
  const int64_t begin_ns = MonotonicNanos();
  IPS_ASSIGN_OR_RETURN(MultiAddResult batch,
                       MultiAdd(caller, table, {{pid, records}}, ctx));
  serving_metrics_.add_micros->Record((MonotonicNanos() - begin_ns) / 1000);
  return batch.statuses[0];
}

Result<MultiAddResult> IpsInstance::MultiAdd(
    const std::string& caller, const std::string& table,
    const std::vector<MultiAddItem>& items, const CallContext& ctx) {
  // Re-install the trace here too: an embedded instance may be written
  // directly, without a Channel hop having installed the context.
  TraceInstallScope trace_install(ctx.trace);
  ScopedSpan server_span("server.add");
  Table* t = nullptr;
  {
    // Same admission shape as MultiQuery: deadline, then the overload
    // controller, then ONE quota charge for the whole batch — a 256-profile
    // ingestion burst is one admission decision, not 256.
    ScopedSpan queue_span("server.queue");
    const int64_t admit_ns = MonotonicNanos();
    IPS_RETURN_IF_ERROR(CheckDeadline(ctx));
    IPS_RETURN_IF_ERROR(
        overload_.Admit(overload_.TierFor(caller, /*is_write=*/true),
                        static_cast<double>(items.size()), ctx,
                        clock_->NowMs()));
    IPS_RETURN_IF_ERROR(quota_.Check(caller));
    if (items.empty()) return Status::InvalidArgument("empty add batch");
    t = FindTable(table);
    if (t == nullptr) return Status::NotFound("table " + table);
    overload_.RecordQueueSample((MonotonicNanos() - admit_ns) / 1000);
  }

  const int64_t begin_ns = MonotonicNanos();
  const bool isolated = isolation_enabled_.load(std::memory_order_relaxed);
  MultiAddResult out;
  out.statuses.assign(items.size(), Status::OK());
  int64_t ok_records = 0;
  int64_t error_items = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].records.empty()) {
      out.statuses[i] = Status::InvalidArgument("empty record batch");
      ++error_items;
      continue;
    }
    Status status = isolated ? AddIsolated(*t, items[i].pid, items[i].records)
                             : AddDirect(*t, items[i].pid, items[i].records);
    out.statuses[i] = status;
    if (status.ok()) {
      ++out.ok_items;
      ok_records += static_cast<int64_t>(items[i].records.size());
    } else {
      ++error_items;
    }
  }

  const int64_t micros = (MonotonicNanos() - begin_ns) / 1000;
  overload_.RecordServiceSample(micros, static_cast<double>(items.size()));
  serving_metrics_.multi_add_micros->Record(micros);
  serving_metrics_.multi_add_batch->Record(static_cast<int64_t>(items.size()));
  if (ok_records > 0) serving_metrics_.adds->Increment(ok_records);
  if (error_items > 0) serving_metrics_.add_errors->Increment(error_items);
  return out;
}

Status IpsInstance::AddDirect(Table& t, ProfileId pid,
                              const std::vector<AddRecord>& records) {
  Status status = t.cache->WithProfileMutable(pid, [&](ProfileData& profile) {
    std::lock_guard<std::mutex> schema_lock(t.schema_mu);
    for (const auto& r : records) {
      profile.Add(r.timestamp, r.slot, r.type, r.fid, r.counts,
                  t.schema.reduce)
          .ok();
    }
  });
  if (status.ok()) t.compaction->MaybeTrigger(pid);
  return status;
}

Status IpsInstance::AddIsolated(Table& t, ProfileId pid,
                                const std::vector<AddRecord>& records) {
  // Hard cap on the write table's memory (Section III-F): if the buffer is
  // full, fall back to the direct path rather than grow without bound.
  if (t.write_table_bytes.load(std::memory_order_relaxed) >
      options_.isolation_memory_limit_bytes) {
    metrics_->GetCounter("isolation.overflow")->Increment();
    return AddDirect(t, pid, records);
  }
  t.write_table->WithProfileMutable(pid, [&](ProfileData& profile) {
    const size_t before = profile.ApproximateBytes();
    for (const auto& r : records) {
      profile.Add(r.timestamp, r.slot, r.type, r.fid, r.counts,
                  t.schema.reduce)
          .ok();
    }
    // Counted under the shard lock, so a drain always sees a profile's bytes
    // and the profile together.
    t.write_table_bytes.fetch_add(profile.ApproximateBytes() - before,
                                  std::memory_order_relaxed);
  });
  return Status::OK();
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
  size_t drained_bytes = 0;
  for (const auto& [pid, buffered] : pending) {
    drained_bytes += buffered.ApproximateBytes() - empty_bytes;
  }
  t.write_table_bytes.fetch_sub(drained_bytes, std::memory_order_relaxed);

  size_t merged = 0;
  for (auto& [pid, buffered] : pending) {
    const auto merge_into = [&](ProfileData& profile) {
      std::lock_guard<std::mutex> schema_lock(t.schema_mu);
      profile.MergeProfile(buffered, t.schema.reduce);
    };
    if (!t.cache->WithProfileMutable(pid, merge_into).ok()) {
      // The cache could not take the profile (its load failed): put the
      // acknowledged writes back for the next merge instead of dropping
      // them.
      t.write_table->WithProfileMutable(pid, [&](ProfileData& profile) {
        const size_t before = profile.ApproximateBytes();
        merge_into(profile);
        t.write_table_bytes.fetch_add(profile.ApproximateBytes() - before,
                                      std::memory_order_relaxed);
      });
      continue;
    }
    ++merged;
    t.compaction->MaybeTrigger(pid);
  }
  return merged;
}

size_t IpsInstance::MergeWriteTablesOnce() {
  std::vector<Table*> tables;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    tables.reserve(tables_.size());
    for (auto& [name, t] : tables_) tables.push_back(t.get());
  }
  size_t merged = 0;
  for (Table* t : tables) merged += MergeWriteTable(*t);
  if (merged > 0) {
    metrics_->GetCounter("isolation.merged_profiles")->Increment(merged);
  }
  return merged;
}

Result<QueryResult> IpsInstance::Query(const std::string& caller,
                                       const std::string& table,
                                       ProfileId pid, const QuerySpec& spec,
                                       const CallContext& ctx) {
  const int64_t begin_ns = MonotonicNanos();
  IPS_ASSIGN_OR_RETURN(
      MultiQueryResult batch,
      MultiQuery(caller, table, std::span<const ProfileId>(&pid, 1), spec,
                 ctx));

  // Point-read bookkeeping after the batch path returns is server overhead;
  // attribute it so the traced stage sum stays honest.
  ScopedSpan record_span("server.queue");
  const int64_t micros = (MonotonicNanos() - begin_ns) / 1000;
  serving_metrics_.query_micros->Record(micros);
  (batch.cache_hits > 0 ? serving_metrics_.query_micros_hit
                        : serving_metrics_.query_micros_miss)
      ->Record(micros);

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
  Table* t = nullptr;
  QuerySpec effective = spec;
  {
    // "Queueing": everything that admits the request before any per-profile
    // work — deadline check, overload controller, quota, table resolution,
    // schema snapshot.
    ScopedSpan queue_span("server.queue");
    const int64_t admit_ns = MonotonicNanos();
    IPS_RETURN_IF_ERROR(CheckDeadline(ctx));
    IPS_RETURN_IF_ERROR(
        overload_.Admit(overload_.TierFor(caller, /*is_write=*/false),
                        static_cast<double>(pids.size()), ctx,
                        clock_->NowMs()));
    // One quota charge per batch — a 500-candidate request is one admission
    // decision, mirroring the batched write path.
    IPS_RETURN_IF_ERROR(quota_.Check(caller));
    if (pids.empty()) return Status::InvalidArgument("empty pid batch");
    t = FindTable(table);
    if (t == nullptr) return Status::NotFound("table " + table);

    std::lock_guard<std::mutex> schema_lock(t->schema_mu);
    effective.reduce = t->schema.reduce;
    overload_.RecordQueueSample((MonotonicNanos() - admit_ns) / 1000);
  }

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

  std::vector<ProfileId> pid_vec(pids.begin(), pids.end());
  std::vector<Status> cache_statuses;
  std::vector<bool> degraded_flags;
  std::vector<Status> exec_statuses(pid_vec.size(), Status::OK());
  // All computes in the batch share this thread's warmed scratch: after the
  // first query on a worker, the compute core runs allocation-free.
  QueryScratch& scratch = QueryScratch::ThreadLocal();
  uint64_t scratch_reuses = 0;
  overhead_span.reset();
  out.cache_hits = t->cache->WithProfiles(
      pid_vec,
      [&](size_t i, const ProfileData& profile) {
        ScopedSpan compute_span("feature.compute");
        if (scratch.uses > 0) ++scratch_reuses;
        Status exec = ExecuteQueryInto(profile, effective, now_ms, &scratch,
                                       &out.results[i]);
        if (!exec.ok()) exec_statuses[i] = exec;
      },
      &cache_statuses, &degraded_flags, ctx.deadline_ms);
  overhead_span.emplace("server.queue");
  if (scratch_reuses > 0) {
    serving_metrics_.scratch_reuse->Increment(
        static_cast<int64_t>(scratch_reuses));
  }
  for (size_t i = 0; i < pid_vec.size(); ++i) {
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

  // In synchronous mode (tests, III-D ablation) MaybeTrigger runs the
  // compaction inline and opens its own stage spans — suspend the overhead
  // span there so they never nest inside it. In the async serving config the
  // trigger is admission bookkeeping only, so the status-folding loop stays
  // attributed to server.queue.
  if (t->compaction->synchronous()) overhead_span.reset();
  int64_t ok_count = 0;
  int64_t error_count = 0;
  for (size_t i = 0; i < pid_vec.size(); ++i) {
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
    t->compaction->MaybeTrigger(pid_vec[i]);
  }

  overhead_span.emplace("server.queue");
  const int64_t micros = (MonotonicNanos() - begin_ns) / 1000;
  overload_.RecordServiceSample(micros,
                                static_cast<double>(pid_vec.size()));
  serving_metrics_.multi_query_micros->Record(micros);
  serving_metrics_.multi_query_batch->Record(
      static_cast<int64_t>(pid_vec.size()));
  if (ok_count > 0) serving_metrics_.queries->Increment(ok_count);
  if (error_count > 0) serving_metrics_.query_errors->Increment(error_count);
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
  std::vector<Table*> tables;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    for (auto& [name, t] : tables_) tables.push_back(t.get());
  }
  for (Table* t : tables) t->cache->FlushAll();
}

void IpsInstance::DrainCompactions() {
  std::vector<Table*> tables;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    for (auto& [name, t] : tables_) tables.push_back(t.get());
  }
  for (Table* t : tables) t->compaction->Drain();
}

void IpsInstance::SetCompactionEnabled(bool enabled) {
  std::lock_guard<std::mutex> lock(tables_mu_);
  for (auto& [name, t] : tables_) t->compaction->SetEnabled(enabled);
}

Result<size_t> IpsInstance::CompactTableNow(const std::string& table) {
  Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  // Same schema-snapshot + off-lock discipline as the triggered path: the
  // sweep never holds schema_mu or an entry lock across a pass, so it can
  // run against live traffic. Profiles evicted mid-sweep are simply skipped.
  TableSchema schema_copy;
  {
    std::lock_guard<std::mutex> schema_lock(t->schema_mu);
    schema_copy = t->schema;
  }
  Compactor compactor(&schema_copy);
  const std::vector<ProfileId> ids = t->cache->CachedIds();
  size_t compacted = 0;
  for (ProfileId pid : ids) {
    const Status status = t->cache->WithProfileOffLockMutate(
        pid, [&](ProfileData& profile) {
          compactor.FullCompact(profile, clock_->NowMs());
          return true;
        });
    if (status.ok()) ++compacted;
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
  if (t->victim_cache != nullptr) {
    stats.l2_cached_profiles = t->victim_cache->EntryCount();
    stats.l2_bytes = t->victim_cache->MemoryBytes();
  }
  if (t->load_coalescer != nullptr) {
    stats.load_coalescer_pids = t->load_coalescer->InFlightCount();
  }
  if (t->store_coalescer != nullptr) {
    stats.store_coalescer_pids = t->store_coalescer->InFlightCount();
  }
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

void IpsInstance::MergerLoop() {
  std::unique_lock<std::mutex> lock(merger_mu_);
  while (!shutdown_.load(std::memory_order_relaxed)) {
    merger_cv_.wait_for(
        lock,
        std::chrono::milliseconds(options_.isolation_merge_interval_ms));
    if (shutdown_.load(std::memory_order_relaxed)) return;
    if (!isolation_enabled_.load(std::memory_order_relaxed)) continue;
    lock.unlock();
    MergeWriteTablesOnce();
    lock.lock();
  }
}

}  // namespace ips
