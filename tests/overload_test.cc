#include "server/overload.h"

#include <chrono>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "common/call_context.h"
#include "common/clock.h"
#include "common/metrics.h"

namespace ips {
namespace {

class OverloadControllerTest : public ::testing::Test {
 protected:
  // Heap-built: the controller owns mutexes and is intentionally pinned.
  std::unique_ptr<OverloadController> Make(OverloadControllerOptions options) {
    return std::make_unique<OverloadController>(options, &clock_, &metrics_);
  }

  // Feeds one queue sample until the EWMA has converged on it (0.8^200 of
  // the old value is left).
  static void Converge(OverloadController& ctrl, int64_t queue_us) {
    for (int i = 0; i < 200; ++i) ctrl.RecordQueueSample(queue_us);
  }

  ManualClock clock_;
  MetricsRegistry metrics_;
};

TEST_F(OverloadControllerTest, TierNamesRoundTrip) {
  for (RequestTier tier :
       {RequestTier::kCritical, RequestTier::kRead, RequestTier::kWrite,
        RequestTier::kBulk}) {
    auto parsed = ParseRequestTier(RequestTierName(tier));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, tier);
  }
  EXPECT_FALSE(ParseRequestTier("turbo").has_value());
  EXPECT_FALSE(ParseRequestTier("").has_value());
}

TEST_F(OverloadControllerTest, CallerTierDefaultsAndOverrides) {
  auto ctrl = Make({});
  // Unmarked callers split by direction.
  EXPECT_EQ(ctrl->TierFor("ranker", /*is_write=*/false), RequestTier::kRead);
  EXPECT_EQ(ctrl->TierFor("ingest", /*is_write=*/true), RequestTier::kWrite);
  // An explicit mark wins for both directions.
  ctrl->SetCallerTier("backfill", RequestTier::kBulk);
  EXPECT_EQ(ctrl->TierFor("backfill", false), RequestTier::kBulk);
  EXPECT_EQ(ctrl->TierFor("backfill", true), RequestTier::kBulk);
  ctrl->SetCallerTier("checkout", RequestTier::kCritical);
  EXPECT_EQ(ctrl->TierFor("checkout", false), RequestTier::kCritical);
  // Removal restores the defaults.
  ctrl->RemoveCallerTier("backfill");
  EXPECT_EQ(ctrl->TierFor("backfill", false), RequestTier::kRead);
}

TEST_F(OverloadControllerTest, DisabledAdmitsEverything) {
  OverloadControllerOptions options;
  options.enabled = false;
  auto ctrl = Make(options);
  ctrl->SetLevelOverride(4);
  EXPECT_TRUE(ctrl->Admit(RequestTier::kBulk, 100.0,
                          CallContext::WithDeadline(1), /*now_ms=*/1000)
                  .ok());
}

TEST_F(OverloadControllerTest, HealthyInstanceAdmitsAllTiers) {
  auto ctrl = Make({});
  const CallContext ctx;  // no deadline
  for (RequestTier tier :
       {RequestTier::kCritical, RequestTier::kRead, RequestTier::kWrite,
        RequestTier::kBulk}) {
    EXPECT_TRUE(ctrl->Admit(tier, 1.0, ctx, clock_.NowMs()).ok());
  }
}

TEST_F(OverloadControllerTest, BrownOutLadderShedsCheapestFirst) {
  auto ctrl = Make({});
  const CallContext ctx;  // deadline-less: isolates the ladder
  struct LevelCase {
    int level;
    bool bulk, write, read, critical;  // true = admitted
  };
  // At level L every tier numbered > 4 - L sheds.
  const LevelCase cases[] = {
      {0, true, true, true, true},   {1, false, true, true, true},
      {2, false, false, true, true}, {3, false, false, false, true},
      {4, false, false, false, false},
  };
  for (const auto& c : cases) {
    ctrl->SetLevelOverride(c.level);
    EXPECT_EQ(ctrl->Admit(RequestTier::kBulk, 1.0, ctx, 0).ok(), c.bulk)
        << "level " << c.level;
    EXPECT_EQ(ctrl->Admit(RequestTier::kWrite, 1.0, ctx, 0).ok(), c.write)
        << "level " << c.level;
    EXPECT_EQ(ctrl->Admit(RequestTier::kRead, 1.0, ctx, 0).ok(), c.read)
        << "level " << c.level;
    EXPECT_EQ(ctrl->Admit(RequestTier::kCritical, 1.0, ctx, 0).ok(), c.critical)
        << "level " << c.level;
  }
  EXPECT_GT(metrics_.GetCounter("admission.shed_brownout")->Value(), 0);
}

TEST_F(OverloadControllerTest, BrownOutShedCarriesRetryAfter) {
  auto ctrl = Make({});
  ctrl->SetLevelOverride(3);
  Status s = ctrl->Admit(RequestTier::kRead, 1.0, CallContext{}, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsThrottled());
  EXPECT_TRUE(s.has_retry_after());
  EXPECT_GE(s.retry_after_ms(), OverloadController::kMinRetryAfterMs);
}

TEST_F(OverloadControllerTest, LevelTracksQueueEstimate) {
  OverloadControllerOptions options;
  options.target_queue_us = 1'000;
  auto ctrl = Make(options);
  EXPECT_EQ(ctrl->Level(), 0);
  // Each sample sits at 1.8x a rung, so the converged estimate clears the
  // rung with room for the half-life decay between sample and check.
  Converge(*ctrl, 1'800);  // > 1x target: shed bulk
  EXPECT_EQ(ctrl->Level(), 1);
  Converge(*ctrl, 3'600);  // > 2x: +writes
  EXPECT_EQ(ctrl->Level(), 2);
  Converge(*ctrl, 7'200);  // > 4x: +reads
  EXPECT_EQ(ctrl->Level(), 3);
  Converge(*ctrl, 14'400);  // > 8x: everything sheds
  EXPECT_EQ(ctrl->Level(), 4);
}

TEST_F(OverloadControllerTest, DeadlineDerivedShed) {
  OverloadControllerOptions options;
  options.target_queue_us = 50'000;  // ladder stays quiet; isolate deadlines
  auto ctrl = Make(options);
  // The first service sample seeds the service EWMA as it is.
  ctrl->RecordServiceSample(/*service_us=*/2'000, /*cost=*/1.0);
  Converge(*ctrl, 10'000);  // standing queue ~10ms

  clock_.SetMs(1'000);
  // 5ms of headroom cannot cover 10ms queue + 2ms service: dead on arrival.
  Status shed = ctrl->Admit(RequestTier::kRead, 1.0,
                           CallContext::WithDeadline(1'005), clock_.NowMs());
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.IsThrottled());
  EXPECT_TRUE(shed.has_retry_after());
  EXPECT_EQ(metrics_.GetCounter("admission.shed_deadline")->Value(), 1);

  // 100ms of headroom fits comfortably.
  EXPECT_TRUE(ctrl->Admit(RequestTier::kRead, 1.0,
                          CallContext::WithDeadline(1'100), clock_.NowMs())
                  .ok());

  // Batch cost scales the needed service time: 60 items * 2ms don't fit in
  // 100ms behind a 10ms queue.
  EXPECT_FALSE(ctrl->Admit(RequestTier::kRead, 60.0,
                           CallContext::WithDeadline(1'100), clock_.NowMs())
                   .ok());

  // Deadline-less requests never shed on the deadline rule.
  EXPECT_TRUE(ctrl->Admit(RequestTier::kRead, 60.0, CallContext{},
                         clock_.NowMs())
                  .ok());
}

TEST_F(OverloadControllerTest, DepthEstimateReactsBeforeAnySampleDrains) {
  OverloadControllerOptions options;
  options.workers = 4;
  options.default_service_us = 2'000;
  auto ctrl = Make(options);
  EXPECT_EQ(ctrl->EstimateQueueUs(), 0);
  // 8 queued requests over 4 workers at 2ms each ~= 4ms of queue, with no
  // wait sample recorded yet (Little's law, not the EWMA).
  for (int i = 0; i < 8; ++i) ctrl->OnEnqueue();
  EXPECT_EQ(ctrl->EstimateQueueUs(), 4'000);
  for (int i = 0; i < 8; ++i) ctrl->OnDequeue(/*waited_us=*/0);
  EXPECT_EQ(ctrl->EstimateQueueUs(), 0);
}

TEST_F(OverloadControllerTest, FirstQueueSampleWeighsAlpha) {
  auto ctrl = Make({});
  // From an empty estimate one sample moves it by alpha = 0.2 of the way.
  ctrl->RecordQueueSample(100'000);
  const int64_t estimate = ctrl->EstimateQueueUs();
  EXPECT_LE(estimate, 20'000);
  EXPECT_GT(estimate, 10'000);  // at most one half-life of decay since
}

TEST_F(OverloadControllerTest, EstimateDecaysAfterBurstEnds) {
  auto ctrl = Make({});
  Converge(*ctrl, 100'000);
  EXPECT_GT(ctrl->EstimateQueueUs(), 50'000);
  // Ten half-lives later the burst's estimate is gone without any new
  // samples (the decay runs on real monotonic time): 100ms / 2^10 < 1ms of
  // queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(
      10 * OverloadController::kEstimateHalfLifeMs));
  EXPECT_LT(ctrl->EstimateQueueUs(), 1'000);
  EXPECT_EQ(ctrl->Level(), 0);
}

TEST_F(OverloadControllerTest, RetryAfterHintClamped) {
  OverloadControllerOptions options;
  options.target_queue_us = 1'000;
  auto ctrl = Make(options);
  static_assert(OverloadController::kMinRetryAfterMs == 2);
  static_assert(OverloadController::kMaxRetryAfterMs == 500);
  // At target: no excess, clamped up to the minimum.
  EXPECT_EQ(ctrl->RetryAfterMsForEstimate(1'000), 2);
  // 26ms of excess queue: hint = drain time.
  EXPECT_EQ(ctrl->RetryAfterMsForEstimate(27'000), 26);
  // Excess beyond the cap: clamped down.
  EXPECT_EQ(ctrl->RetryAfterMsForEstimate(10'000'000), 500);
}

TEST_F(OverloadControllerTest, ServiceEwmaNormalizesPerItem) {
  OverloadControllerOptions options;
  options.workers = 1;
  auto ctrl = Make(options);
  // 64 items served in 32ms = 500us/item; the depth estimate uses the
  // per-item figure, not the raw batch duration. The first sample seeds the
  // service EWMA as it is.
  ctrl->RecordServiceSample(32'000, /*cost=*/64.0);
  ctrl->OnEnqueue();
  EXPECT_EQ(ctrl->EstimateQueueUs(), 500);
  // A second sample at 1000us/item moves the EWMA alpha = 0.2 of the way.
  ctrl->RecordServiceSample(64'000, /*cost=*/64.0);
  EXPECT_EQ(ctrl->EstimateQueueUs(), 600);
  ctrl->OnDequeue(0);
}

}  // namespace
}  // namespace ips
