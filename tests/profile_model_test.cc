// Seeded reference-model property test of the in-memory profile layout.
// Random sequences of Add, slice MergeFrom, Compact, Truncate, Shrink,
// MergeProfile and encode/decode round trips (bulk and split mode) run
// against a ProfileData and, in parallel, against a plain model: a
// newest-first list of slices, each a std::map from (slot, type, fid) to
// counts. After every step the profile must hold exactly the model's slices
// and rows, keep its invariants and byte accounting, and answer random
// queries exactly like a brute-force query over the model.
#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "codec/profile_codec.h"
#include "common/random.h"
#include "compaction/compactor.h"
#include "core/table_schema.h"
#include "query/query.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr TimestampMs kNow = 200 * kMillisPerDay;

using Key = std::tuple<SlotId, TypeId, FeatureId>;
using Counts = std::vector<int64_t>;

struct ModelSlice {
  TimestampMs start_ms;
  TimestampMs end_ms;
  std::map<Key, Counts> rows;
};
using Model = std::vector<ModelSlice>;  // newest first

// CountVector's reduce, restated: widen `into` with zeros, then combine.
void ModelReduce(Counts& into, const Counts& from, ReduceFn reduce) {
  if (from.size() > into.size()) into.resize(from.size(), 0);
  for (size_t i = 0; i < from.size(); ++i) {
    into[i] = reduce == ReduceFn::kSum ? into[i] + from[i]
                                       : std::max(into[i], from[i]);
  }
}

void ModelAddRow(ModelSlice& slice, const Key& key, const Counts& counts,
                 ReduceFn reduce) {
  auto [it, inserted] = slice.rows.try_emplace(key, counts);
  if (!inserted) ModelReduce(it->second, counts, reduce);
}

Counts ToCounts(const CountVector& v) {
  return Counts(v.data(), v.data() + v.size());
}

CountVector ToCountVector(const Counts& c) {
  CountVector v(c.size());
  for (size_t i = 0; i < c.size(); ++i) v[i] = c[i];
  return v;
}

TableSchema ModelSchema() {
  TableSchema schema = DefaultTableSchema("model");
  schema.time_dimensions = {
      {kMinute, 0, kMillisPerHour},
      {10 * kMinute, kMillisPerHour, 6 * kMillisPerHour},
      {kMillisPerHour, 6 * kMillisPerHour, 30 * kMillisPerDay},
  };
  schema.truncate.max_age_ms = 3 * kMillisPerDay;
  schema.truncate.max_slices = 40;
  schema.shrink.default_retain = 6;
  schema.shrink.retain_per_slot = {{3, 0}};  // slot 3 is never shrunk
  schema.shrink.freshness_horizon_ms = 2 * kMillisPerHour;
  return schema;
}

class ProfileModelTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  ProfileModelTest() : rng_(GetParam()), schema_(ModelSchema()) {}

  // After a real Add at `ts`: the model slice with the interval of the
  // profile slice now covering `ts` (created in place when new).
  ModelSlice& ModelSliceAt(Model& model, const ProfileData& profile,
                           TimestampMs ts) {
    const auto& slices = profile.slices();
    auto real = std::find_if(slices.begin(), slices.end(),
                             [&](const Slice& s) { return s.Contains(ts); });
    EXPECT_NE(real, slices.end());
    auto it = std::find_if(model.begin(), model.end(), [&](const auto& m) {
      return m.start_ms == real->start_ms();
    });
    if (it == model.end()) {
      it = std::find_if(model.begin(), model.end(), [&](const auto& m) {
        return m.start_ms < real->start_ms();
      });
      it = model.insert(it, ModelSlice{real->start_ms(), real->end_ms(), {}});
    }
    EXPECT_EQ(it->end_ms, real->end_ms());
    return *it;
  }

  CountVector RandomCounts() {
    CountVector counts(1 + rng_.Uniform(6));
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] = static_cast<int64_t>(rng_.Uniform(24)) - 3;
    }
    return counts;
  }

  void Add(ProfileData& profile, Model& model) {
    const TimestampMs ts =
        kNow - static_cast<TimestampMs>(rng_.Uniform(2 * kMillisPerDay));
    const Key key{static_cast<SlotId>(rng_.Uniform(4)),
                  static_cast<TypeId>(rng_.Uniform(4)), 1 + rng_.Uniform(30)};
    const CountVector counts = RandomCounts();
    const ReduceFn reduce =
        rng_.Bernoulli(0.8) ? ReduceFn::kSum : ReduceFn::kMax;
    ASSERT_TRUE(profile
                    .Add(ts, std::get<0>(key), std::get<1>(key),
                         std::get<2>(key), counts, reduce)
                    .ok());
    ModelAddRow(ModelSliceAt(model, profile, ts), key, ToCounts(counts),
                reduce);
  }

  void MergeAdjacentSlices(ProfileData& profile, Model& model) {
    auto& slices = profile.mutable_slices();
    if (slices.size() < 2) return;
    const size_t i = rng_.Uniform(slices.size() - 1);
    slices[i].MergeFrom(slices[i + 1], schema_.reduce);
    slices.erase(slices.begin() + static_cast<ptrdiff_t>(i) + 1);
    profile.RecomputeBytes();
    ModelSlice& newer = model[i];
    for (const auto& [key, counts] : model[i + 1].rows) {
      ModelAddRow(newer, key, counts, schema_.reduce);
    }
    newer.start_ms = model[i + 1].start_ms;
    model.erase(model.begin() + static_cast<ptrdiff_t>(i) + 1);
  }

  // Compact decides which neighbours merge; the model checks that every
  // result slice is exactly a run of model slices, folded newest first.
  void Compact(ProfileData& profile, Model& model) {
    Compactor(&schema_).Compact(profile, kNow);
    Model merged;
    size_t m = 0;
    for (const Slice& real : profile.slices()) {
      ASSERT_LT(m, model.size());
      ModelSlice acc = model[m++];
      while (m < model.size() && model[m].start_ms >= real.start_ms()) {
        for (const auto& [key, counts] : model[m].rows) {
          ModelAddRow(acc, key, counts, schema_.reduce);
        }
        acc.start_ms = model[m++].start_ms;
      }
      ASSERT_EQ(acc.start_ms, real.start_ms());
      ASSERT_EQ(acc.end_ms, real.end_ms());
      merged.push_back(std::move(acc));
    }
    ASSERT_EQ(m, model.size());
    model = std::move(merged);
  }

  void Truncate(ProfileData& profile, Model& model) {
    Compactor(&schema_).Truncate(profile, kNow);
    const TimestampMs horizon = kNow - schema_.truncate.max_age_ms;
    while (!model.empty() && model.back().end_ms <= horizon) model.pop_back();
    while (model.size() > static_cast<size_t>(schema_.truncate.max_slices)) {
      model.pop_back();
    }
  }

  // Per slot of each slice past the freshness horizon: keep the `budget`
  // best rows by weighted score, ties to the lower (type, fid).
  void Shrink(ProfileData& profile, Model& model) {
    const Compactor compactor(&schema_);
    compactor.Shrink(profile, kNow);
    const ShrinkPolicy& policy = schema_.shrink;
    for (ModelSlice& slice : model) {
      if (slice.end_ms > kNow - policy.freshness_horizon_ms) continue;
      std::map<SlotId, std::vector<std::pair<double, Key>>> by_slot;
      for (const auto& [key, counts] : slice.rows) {
        by_slot[std::get<0>(key)].emplace_back(
            compactor.ImportanceScore(ToCountVector(counts)), key);
      }
      for (auto& [slot, scored] : by_slot) {
        auto found = policy.retain_per_slot.find(slot);
        const int64_t budget = found != policy.retain_per_slot.end()
                                   ? found->second
                                   : policy.default_retain;
        if (budget <= 0 || scored.size() <= static_cast<size_t>(budget)) {
          continue;
        }
        std::sort(scored.begin(), scored.end(),
                  [](const auto& a, const auto& b) {
                    if (a.first != b.first) return a.first > b.first;
                    return a.second < b.second;
                  });
        for (size_t i = static_cast<size_t>(budget); i < scored.size(); ++i) {
          slice.rows.erase(scored[i].second);
        }
      }
    }
  }

  void MergeProfile(ProfileData& profile, Model& model) {
    ProfileData other(kMinute);
    Model other_model;
    const int writes = 1 + static_cast<int>(rng_.Uniform(8));
    for (int i = 0; i < writes; ++i) Add(other, other_model);
    const ReduceFn reduce =
        rng_.Bernoulli(0.8) ? ReduceFn::kSum : ReduceFn::kMax;
    profile.MergeProfile(other, reduce);
    for (auto it = other_model.rbegin(); it != other_model.rend(); ++it) {
      ModelSlice& target = ModelSliceAt(model, profile, it->start_ms);
      for (const auto& [key, counts] : it->rows) {
        ModelAddRow(target, key, counts, reduce);
      }
    }
  }

  void RoundTrip(ProfileData& profile) {
    if (rng_.Bernoulli(0.5)) {
      std::string bytes;
      EncodeProfile(profile, &bytes);
      ProfileData decoded;
      ASSERT_TRUE(DecodeProfile(bytes, &decoded).ok());
      profile = std::move(decoded);
      return;
    }
    ProfileData decoded(profile.write_granularity_ms());
    decoded.set_last_action_ms(profile.LastActionMs());
    std::string bytes;
    for (const Slice& slice : profile.slices()) {
      EncodeSlice(slice, &bytes);
      ASSERT_TRUE(
          DecodeSlice(bytes, &decoded.mutable_slices().emplace_back()).ok());
    }
    decoded.RecomputeBytes();
    profile = std::move(decoded);
  }

  static void ExpectMatchesModel(ProfileData& profile, const Model& model) {
    ASSERT_TRUE(profile.CheckInvariants());
    const size_t incremental = profile.ApproximateBytes();
    EXPECT_EQ(profile.RecomputeBytes(), incremental);
    ASSERT_EQ(profile.SliceCount(), model.size());
    for (size_t i = 0; i < model.size(); ++i) {
      const Slice& real = profile.slices()[i];
      EXPECT_EQ(real.start_ms(), model[i].start_ms) << "slice " << i;
      EXPECT_EQ(real.end_ms(), model[i].end_ms) << "slice " << i;
      ASSERT_EQ(real.rows().size(), model[i].rows.size()) << "slice " << i;
      auto want = model[i].rows.begin();
      for (const FeatureRow& row : real.rows()) {
        EXPECT_EQ(row.Key(), want->first);
        EXPECT_EQ(ToCounts(row.counts), want->second);
        ++want;
      }
    }
  }

  QuerySpec RandomSpec() {
    QuerySpec spec;
    spec.slot = static_cast<SlotId>(rng_.Uniform(4));
    if (rng_.Bernoulli(0.4)) spec.type = static_cast<TypeId>(rng_.Uniform(4));
    switch (rng_.Uniform(3)) {
      case 0:
        spec.time_range = TimeRange::Current(
            static_cast<int64_t>(1 + rng_.Uniform(3 * kMillisPerDay)));
        break;
      case 1:
        spec.time_range = TimeRange::Relative(
            static_cast<int64_t>(1 + rng_.Uniform(kMillisPerDay)));
        break;
      default: {
        const TimestampMs from =
            kNow - static_cast<TimestampMs>(rng_.Uniform(3 * kMillisPerDay));
        spec.time_range = TimeRange::Absolute(
            from, from + 1 + static_cast<TimestampMs>(
                                 rng_.Uniform(2 * kMillisPerDay)));
      }
    }
    spec.sort_by = static_cast<SortBy>(rng_.Uniform(3));
    spec.sort_action = static_cast<ActionIndex>(rng_.Uniform(5));
    spec.k = rng_.Uniform(12);
    spec.reduce = rng_.Bernoulli(0.8) ? ReduceFn::kSum : ReduceFn::kMax;
    if (rng_.Bernoulli(0.5)) {
      spec.decay.function = DecayFunction::kExponential;
      spec.decay.factor = 0.8;
      spec.decay.unit_ms = 6 * kMillisPerHour;
    }
    switch (rng_.Uniform(4)) {
      case 0:
        spec.filter.op = FilterOp::kCountAtLeast;
        spec.filter.action = static_cast<ActionIndex>(rng_.Uniform(3));
        spec.filter.operand = static_cast<int64_t>(rng_.Uniform(20));
        break;
      case 1:
        spec.filter.op = FilterOp::kFidIn;
        for (int i = 0; i < 8; ++i) {
          spec.filter.fids.push_back(1 + rng_.Uniform(30));
        }
        break;
      default:
        break;
    }
    return spec;
  }

  // The query semantics of Section II-B over the model: merge the slot's
  // (and type's) rows of every slice overlapping the window, newest slice
  // first, weighting each slice by its midpoint's age; filter; sort; top-K.
  static QueryResult ModelQuery(const Model& model, const QuerySpec& spec,
                                TimestampMs from, TimestampMs to) {
    QueryResult out;
    std::map<FeatureId, FeatureResult> merged;
    for (const ModelSlice& slice : model) {
      if (slice.start_ms >= to || slice.end_ms <= from) continue;
      const TimestampMs mid =
          slice.start_ms + (slice.end_ms - slice.start_ms) / 2;
      const double weight = spec.decay.WeightForAge(to - mid);
      bool scanned = false;
      for (const auto& [key, counts] : slice.rows) {
        const auto& [slot, type, fid] = key;
        if (slot != spec.slot) continue;
        scanned = true;
        if (spec.type.has_value() && type != *spec.type) continue;
        auto [it, inserted] = merged.try_emplace(fid);
        FeatureResult& f = it->second;
        f.fid = fid;
        Counts acc = inserted ? counts : ToCounts(f.counts);
        if (!inserted) ModelReduce(acc, counts, spec.reduce);
        f.counts = ToCountVector(acc);
        if (f.weighted.size() < counts.size()) f.weighted.Resize(counts.size());
        for (size_t i = 0; i < counts.size(); ++i) {
          const double w = static_cast<double>(counts[i]) * weight;
          f.weighted[i] = inserted || spec.reduce == ReduceFn::kSum
                              ? f.weighted[i] + w
                              : std::max(f.weighted[i], w);
        }
        f.newest_ms = std::max(f.newest_ms, slice.end_ms);
      }
      if (scanned) ++out.slices_scanned;
    }
    out.features_merged = merged.size();
    for (auto& [fid, f] : merged) {
      const FilterSpec& filter = spec.filter;
      const bool in_set = std::find(filter.fids.begin(), filter.fids.end(),
                                    fid) != filter.fids.end();
      if ((filter.op == FilterOp::kCountAtLeast &&
           f.counts.At(filter.action) < filter.operand) ||
          (filter.op == FilterOp::kFidIn && !in_set)) {
        continue;
      }
      out.features.push_back(f);
    }
    std::sort(out.features.begin(), out.features.end(),
              [&](const FeatureResult& a, const FeatureResult& b) {
                if (spec.sort_by == SortBy::kActionCount &&
                    a.WeightedAt(spec.sort_action) !=
                        b.WeightedAt(spec.sort_action)) {
                  return a.WeightedAt(spec.sort_action) >
                         b.WeightedAt(spec.sort_action);
                }
                if (spec.sort_by == SortBy::kTimestamp &&
                    a.newest_ms != b.newest_ms) {
                  return a.newest_ms > b.newest_ms;
                }
                return a.fid < b.fid;
              });
    if (spec.k > 0 && out.features.size() > spec.k) {
      out.features.resize(spec.k);
    }
    return out;
  }

  void ExpectQueriesMatchModel(const ProfileData& profile,
                               const Model& model) {
    for (int q = 0; q < 4; ++q) {
      const QuerySpec spec = RandomSpec();
      auto window = spec.time_range.Resolve(profile, kNow);
      ASSERT_TRUE(window.ok());
      const QueryResult want =
          ModelQuery(model, spec, window->first, window->second);
      auto got = ExecuteQuery(profile, spec, kNow);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->slices_scanned, want.slices_scanned);
      EXPECT_EQ(got->features_merged, want.features_merged);
      ASSERT_EQ(got->features.size(), want.features.size());
      for (size_t i = 0; i < want.features.size(); ++i) {
        const FeatureResult& g = got->features[i];
        const FeatureResult& w = want.features[i];
        EXPECT_EQ(g.fid, w.fid) << "rank " << i;
        EXPECT_EQ(g.counts, w.counts) << "fid " << w.fid;
        EXPECT_EQ(g.weighted, w.weighted) << "fid " << w.fid;
        EXPECT_EQ(g.newest_ms, w.newest_ms) << "fid " << w.fid;
      }
    }
  }

  Rng rng_;
  TableSchema schema_;
};

TEST_P(ProfileModelTest, RandomOperationsMatchReferenceModel) {
  ProfileData profile(kMinute);
  Model model;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const uint64_t op = rng_.Uniform(100);
    if (op < 55) {
      Add(profile, model);
    } else if (op < 63) {
      MergeAdjacentSlices(profile, model);
    } else if (op < 71) {
      Compact(profile, model);
    } else if (op < 75) {
      Truncate(profile, model);
    } else if (op < 83) {
      Shrink(profile, model);
    } else if (op < 90) {
      MergeProfile(profile, model);
    } else {
      RoundTrip(profile);
    }
    ExpectMatchesModel(profile, model);
    ExpectQueriesMatchModel(profile, model);
    if (HasFatalFailure() || HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace ips
