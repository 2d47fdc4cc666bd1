// Batch write path: per-profile writes vs the batched write path, at batch
// sizes {1, 16, 64, 256}.
//
// Ingestion traffic arrives in bursts of many profiles. The per-profile
// path pays one KV round trip per dirty profile at flush time and one RPC
// round trip per profile at the client; the batched path drains a flush
// group with one KvStore::MultiSet and ships a client batch as one MultiAdd
// RPC per owning node, amortizing the fixed transport and storage costs
// (the write-side mirror of the batch read path).
//
// Two phases isolate the two amortizations:
//   * warm_flush   — single instance over a calibrated KV store: dirty
//                    `batch` cached profiles, then FlushAll with the flush
//                    group capped at 1 (per-profile round trips) vs at the
//                    full batch (one MultiSet per flush group). The MultiSet
//                    op counters prove the round-trip counts.
//   * client_fanout — cluster with calibrated channel latency: sequential
//                    AddProfiles per profile vs ONE client MultiAdd.
//
// `--smoke` runs only the acceptance sizes and exits nonzero unless the
// batched flush at 256 is >= 4x faster than per-profile writes with exactly
// one MultiSet round trip per flush group. Emits BENCH_batch_write.json.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "server/ips_instance.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kDay = kMillisPerDay;
const std::vector<size_t> kBatchSizes = {1, 16, 64, 256};
constexpr const char* kTable = "user_profile";
constexpr int kRecordsPerProfile = 5;

struct Row {
  size_t batch = 0;
  double seq_ms = 0;
  double batch_ms = 0;
  int64_t kv_multisets_seq = -1;    // warm_flush phase only
  int64_t kv_multisets_batch = -1;  // warm_flush phase only
  double Speedup() const { return batch_ms > 0 ? seq_ms / batch_ms : 0; }
};

std::vector<MultiAddItem> WriteItems(size_t batch, TimestampMs now_ms,
                                     ProfileId first_pid) {
  std::vector<MultiAddItem> items;
  items.reserve(batch);
  for (size_t i = 0; i < batch; ++i) {
    MultiAddItem item;
    item.pid = first_pid + static_cast<ProfileId>(i);
    for (int j = 1; j <= kRecordsPerProfile; ++j) {
      AddRecord r;
      r.timestamp = now_ms - j * kMinute;
      r.slot = 1;
      r.type = 1;
      r.fid = static_cast<FeatureId>(j);
      r.counts = CountVector{1};
      item.records.push_back(r);
    }
    items.push_back(std::move(item));
  }
  return items;
}

IpsInstanceOptions FlushInstanceOptions(size_t flush_batch_max) {
  IpsInstanceOptions options;
  options.isolation_enabled = false;
  options.start_background_threads = false;
  options.compaction.synchronous = true;
  // The flush-group cap alone decides how many MultiSet round trips a
  // FlushAll pays.
  options.cache.flush_batch_max = flush_batch_max;
  return options;
}

// Dirties `batch` profiles in a fresh instance over `kv`, then times the
// FlushAll drain. Returns elapsed ms; *out_multisets gets the MultiSet
// round-trip count the drain cost.
double TimeFlush(MemKvStore& kv, ManualClock& clock, size_t batch,
                 size_t flush_batch_max, int64_t* out_multisets) {
  IpsInstance instance(FlushInstanceOptions(flush_batch_max), &kv, &clock);
  instance.CreateTable(DefaultTableSchema(kTable)).ok();
  auto result =
      instance.MultiAdd("loader", kTable, WriteItems(batch, clock.NowMs(), 1));
  if (!result.ok()) {
    std::printf("warm_flush MultiAdd failed at %zu\n", batch);
    return 0;
  }
  const int64_t ops_before = kv.MultiSetCalls();
  const int64_t begin = MonotonicNanos();
  instance.FlushAll();
  const double elapsed_ms =
      static_cast<double>(MonotonicNanos() - begin) / 1e6;
  *out_multisets = kv.MultiSetCalls() - ops_before;
  return elapsed_ms;
}

// Phase 1: flush-time amortization. Per-profile round trips (flush group
// capped at one entry) vs one MultiSet covering the whole dirty batch.
std::vector<Row> RunWarmFlush(const std::vector<size_t>& sizes) {
  ManualClock clock(500 * kDay);
  MemKvStore kv(bench::CalibratedKv());
  std::vector<Row> rows;
  for (size_t batch : sizes) {
    Row row;
    row.batch = batch;
    row.seq_ms = TimeFlush(kv, clock, batch, /*flush_batch_max=*/1,
                           &row.kv_multisets_seq);
    row.batch_ms =
        TimeFlush(kv, clock, batch, batch, &row.kv_multisets_batch);
    rows.push_back(row);
  }
  return rows;
}

// Phase 2: client fan-out amortization. Sequential AddProfiles pays one RPC
// round trip per profile; MultiAdd pays one per owning node.
std::vector<Row> RunClientFanout(const std::vector<size_t>& sizes) {
  ManualClock clock(500 * kDay);
  DeploymentOptions options = bench::SingleRegion(/*calibrated=*/true);
  options.regions[0].num_nodes = 2;  // exercise the scatter-gather split
  options.kv.store_options = bench::FastKv();  // isolate the RPC effect
  options.discovery_ttl_ms = 365 * kDay;
  Deployment deployment(options, &clock);
  if (!deployment.CreateTableEverywhere(DefaultTableSchema(kTable)).ok()) {
    return {};
  }
  IpsClientOptions client_options;
  client_options.caller = "ingester";
  client_options.local_region = "lf";
  IpsClient client(client_options, &deployment);

  std::vector<Row> rows;
  ProfileId next_pid = 1;
  for (size_t batch : sizes) {
    const std::vector<MultiAddItem> items =
        WriteItems(batch, clock.NowMs(), next_pid);
    next_pid += static_cast<ProfileId>(2 * batch);
    Row row;
    row.batch = batch;

    int64_t begin = MonotonicNanos();
    for (const MultiAddItem& item : items) {
      client.AddProfiles(kTable, item.pid + static_cast<ProfileId>(batch),
                         item.records)
          .ok();
    }
    row.seq_ms = static_cast<double>(MonotonicNanos() - begin) / 1e6;

    begin = MonotonicNanos();
    auto result = client.MultiAdd(kTable, items);
    row.batch_ms = static_cast<double>(MonotonicNanos() - begin) / 1e6;
    if (!result.ok()) std::printf("client MultiAdd failed at %zu\n", batch);
    rows.push_back(row);
  }
  return rows;
}

void PrintRows(const char* title, const std::vector<Row>& rows,
               bool with_ops) {
  std::printf("\n--- %s ---\n", title);
  if (with_ops) {
    bench::PrintHeader({"batch", "seq_ms", "multi_ms", "speedup",
                        "kv_ops_seq", "kv_ops_multi"});
  } else {
    bench::PrintHeader({"batch", "seq_ms", "multi_ms", "speedup"});
  }
  for (const Row& row : rows) {
    bench::PrintCell(static_cast<int64_t>(row.batch));
    bench::PrintCell(row.seq_ms);
    bench::PrintCell(row.batch_ms);
    bench::PrintCell(row.Speedup());
    if (with_ops) {
      bench::PrintCell(row.kv_multisets_seq);
      bench::PrintCell(row.kv_multisets_batch);
    }
    bench::EndRow();
  }
}

void WriteJson(const std::vector<Row>& flush, const std::vector<Row>& fanout) {
  std::FILE* f = std::fopen("BENCH_batch_write.json", "w");
  if (f == nullptr) {
    std::printf("could not write BENCH_batch_write.json\n");
    return;
  }
  auto write_rows = [&](const char* name, const std::vector<Row>& rows,
                        bool with_ops, const char* trailer) {
    std::fprintf(f, "  \"%s\": [\n", name);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(f, "    {\"batch\": %zu, \"seq_ms\": %.3f, "
                   "\"multi_ms\": %.3f, \"speedup\": %.2f",
                   row.batch, row.seq_ms, row.batch_ms, row.Speedup());
      if (with_ops) {
        std::fprintf(f, ", \"kv_multisets_seq\": %lld, "
                     "\"kv_multisets_multi\": %lld",
                     static_cast<long long>(row.kv_multisets_seq),
                     static_cast<long long>(row.kv_multisets_batch));
      }
      std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]%s\n", trailer);
  };
  std::fprintf(f, "{\n  \"bench\": \"batch_write\",\n");
  write_rows("warm_flush", flush, /*with_ops=*/true, ",");
  write_rows("client_fanout", fanout, /*with_ops=*/false, "");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_batch_write.json\n");
}

int CheckAcceptance(const std::vector<Row>& flush,
                    const std::vector<Row>& fanout) {
  int rc = 0;
  for (const Row& row : flush) {
    if (row.batch != 256) continue;
    // One MultiSet per flush group; the batched run sets flush_batch_max to
    // the batch size (see TimeFlush), so the whole batch is one group.
    const size_t group_max = row.batch;
    const long long expected_groups =
        static_cast<long long>((row.batch + group_max - 1) / group_max);
    std::printf(
        "\nacceptance: batch=256 batched flush %.1fx faster than "
        "per-profile writes (need >= 4), %lld MultiSet round trips for the "
        "flush batch (need %lld: one per flush group) vs %lld "
        "per-profile\n",
        row.Speedup(), static_cast<long long>(row.kv_multisets_batch),
        expected_groups, static_cast<long long>(row.kv_multisets_seq));
    if (row.Speedup() < 4.0) {
      std::printf("FAIL: flush amortization under 4x\n");
      rc = 1;
    }
    if (row.kv_multisets_batch != expected_groups) {
      std::printf("FAIL: batched flush was not one MultiSet per group\n");
      rc = 1;
    }
    if (row.kv_multisets_seq != 256) {
      std::printf("FAIL: per-profile flush did not pay one trip each\n");
      rc = 1;
    }
  }
  for (const Row& row : fanout) {
    if (row.batch != 256) continue;
    std::printf(
        "acceptance: batch=256 client MultiAdd %.1fx faster than 256 "
        "sequential writes (need > 1)\n",
        row.Speedup());
    if (row.Speedup() <= 1.0) {
      std::printf("FAIL: client fan-out amortization missing\n");
      rc = 1;
    }
  }
  return rc;
}

int Run(bool smoke) {
  std::printf(
      "=== Batch write path: per-profile writes vs MultiAdd/MultiSet ===\n"
      "per-profile pays one round trip per dirty profile; the batched path\n"
      "pays one MultiSet per flush group and one MultiAdd RPC per node\n"
      "(mode: %s)\n",
      smoke ? "smoke" : "full");
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{256} : kBatchSizes;
  const std::vector<Row> flush = RunWarmFlush(sizes);
  const std::vector<Row> fanout = RunClientFanout(sizes);
  PrintRows("warm flush: KV round-trip amortization (instance)", flush,
            /*with_ops=*/true);
  PrintRows("client fan-out: RPC amortization (client, 2 nodes)", fanout,
            /*with_ops=*/false);
  const int rc = CheckAcceptance(flush, fanout);
  if (!smoke) WriteJson(flush, fanout);
  return rc;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int rc = ips::Run(smoke);
  // The full run is a report; only the smoke gate fails the process.
  return smoke ? rc : 0;
}
