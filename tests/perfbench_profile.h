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

/// perfbench's `read_hot` profile: PerfbenchProfile(seed, pid) after the
/// traffic of the last minutes, two one-minute slices, each holding 7 of
/// the 16 write fids (513 .. 528) under two of the four types. A counting
/// build measured the queries of a 3 s `read_hot` process (set-up
/// included) at 11.5 slices, 20 type runs, 52 rows and 30 distinct fids
/// each on average; this profile has 12, 20, 52 and about 30.
inline ProfileData PerfbenchHotProfile(uint64_t seed, ProfileId pid) {
  constexpr FeatureId kWriteFidBase = 512;
  constexpr uint64_t kWriteFids = 16;
  ProfileData profile = PerfbenchProfile(seed, pid);
  Rng rng(Mix64(seed ^ Mix64(~pid)));
  const uint64_t first = rng.Uniform(kWriteFids);
  for (int minute = 0; minute < 2; ++minute) {
    const TimestampMs ts = kPerfbenchNowMs - (minute + 1) * kMillisPerMinute;
    const TypeId first_type = 1 + 2 * static_cast<TypeId>(minute);
    for (TypeId type = first_type; type < first_type + 2; ++type) {
      for (uint64_t j = 0; j < 7; ++j) {
        // 5 is coprime to 16, so the 7 fids are distinct.
        const FeatureId fid = kWriteFidBase + 1 + (first + 5 * j) % kWriteFids;
        const CountVector counts{1 + static_cast<int64_t>(rng.Uniform(4)),
                                 static_cast<int64_t>(rng.Uniform(3)), 0, 0};
        profile.Add(ts, 1, type, fid, counts, ReduceFn::kSum).ok();
      }
    }
  }
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
