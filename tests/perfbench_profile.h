// The profile shape and serving query of the end-to-end serving benchmark
// (perfbench's universe profiles), shared by the tests and micro-benchmarks
// that size the in-memory profile layout: 24 records of slot 1 on a 3-hour
// grid over 3 days, four types, fids drawn from 512, four counts each, then
// one full compaction under the default schema.
#ifndef IPS_TESTS_PERFBENCH_PROFILE_H_
#define IPS_TESTS_PERFBENCH_PROFILE_H_

#include <cstdint>

#include "common/clock.h"
#include "common/hash.h"
#include "common/random.h"
#include "compaction/compactor.h"
#include "core/profile_data.h"
#include "core/table_schema.h"
#include "query/query.h"

namespace ips {

/// Simulated "now" of a perfbench-shaped profile.
inline constexpr TimestampMs kPerfbenchNowMs = 400 * kMillisPerDay;

/// The universe profile perfbench preloads for `pid` under `seed`, after
/// the FullCompact every load applies: the shape a serving cache holds
/// (10 slices).
inline ProfileData PerfbenchProfile(uint64_t seed, ProfileId pid) {
  constexpr int kRecords = 24;
  constexpr int64_t kGridMs = 3 * kMillisPerDay / kRecords;
  Rng rng(Mix64(seed ^ Mix64(pid)));
  const int64_t phase = static_cast<int64_t>(rng.Uniform(kGridMs));
  ProfileData profile(kMillisPerMinute);
  for (int i = 0; i < kRecords; ++i) {
    const TimestampMs ts = kPerfbenchNowMs - phase - (i + 1) * kGridMs;
    const TypeId type = 1 + static_cast<TypeId>(i % 4);
    const FeatureId fid = 1 + rng.Uniform(512);
    const CountVector counts{1 + static_cast<int64_t>(rng.Uniform(3)),
                             static_cast<int64_t>(rng.Uniform(2)), 0,
                             static_cast<int64_t>(rng.Uniform(2))};
    profile.Add(ts, 1, type, fid, counts, ReduceFn::kSum).ok();
  }
  const TableSchema schema = DefaultTableSchema("perfbench");
  Compactor(&schema).FullCompact(profile, kPerfbenchNowMs);
  return profile;
}

/// perfbench's serving query: slot 1, the last 7 days, top 20 by clicks.
inline QuerySpec PerfbenchServingSpec() {
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(7 * kMillisPerDay);
  spec.sort_by = SortBy::kActionCount;
  spec.k = 20;
  return spec;
}

}  // namespace ips

#endif  // IPS_TESTS_PERFBENCH_PROFILE_H_
