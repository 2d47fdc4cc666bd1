// Unit tests for the fault-tolerance primitives of the request layer:
// CallContext deadlines, the retry policy (classification, decorrelated
// jitter backoff, token-bucket budget) and the per-node circuit breaker.
#include "cluster/circuit_breaker.h"
#include "cluster/retry_policy.h"
#include "common/call_context.h"

#include <algorithm>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "cluster/client.h"
#include "cluster/deployment.h"
#include "common/clock.h"
#include "core/table_schema.h"
#include "server/overload.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kDay = kMillisPerDay;

// --- CallContext ------------------------------------------------------

TEST(CallContextTest, DefaultHasNoDeadline) {
  CallContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.Expired(0));
  EXPECT_FALSE(ctx.Expired(std::numeric_limits<TimestampMs>::max() - 1));
  EXPECT_EQ(ctx.RemainingMs(12345), CallContext::kNoDeadline);
}

TEST(CallContextTest, ExpiryAndRemainingBudget) {
  CallContext ctx = CallContext::WithDeadline(1000);
  ASSERT_TRUE(ctx.has_deadline());
  EXPECT_FALSE(ctx.Expired(999));
  EXPECT_TRUE(ctx.Expired(1000));  // deadline instant counts as expired
  EXPECT_TRUE(ctx.Expired(5000));
  EXPECT_EQ(ctx.RemainingMs(400), 600);
  EXPECT_EQ(ctx.RemainingMs(1000), 0);
  EXPECT_EQ(ctx.RemainingMs(9999), 0);  // clamped, never negative
}

TEST(CallContextTest, WithTimeoutIsRelativeToClock) {
  ManualClock clock(5000);
  CallContext ctx = CallContext::WithTimeout(clock, 250);
  EXPECT_EQ(ctx.deadline_ms, 5250);
  // Non-positive timeout = the disabled default: no deadline at all.
  EXPECT_FALSE(CallContext::WithTimeout(clock, 0).has_deadline());
  EXPECT_FALSE(CallContext::WithTimeout(clock, -5).has_deadline());
}

// --- RetryPolicy ------------------------------------------------------

constexpr int64_t kInitialBackoffMs = RetryPolicy::kInitialBackoffMs;
constexpr int64_t kMaxBackoffMs = RetryPolicy::kMaxBackoffMs;
constexpr double kBudgetCap = RetryPolicy::kBudgetCap;  // 100 tokens

// Withdraws every budget token with granted retries.
void DrainBudget(RetryPolicy& policy) {
  for (int i = 0; i < static_cast<int>(kBudgetCap); ++i) {
    ASSERT_TRUE(
        policy.NextRetryDelayMs(Status::Unavailable("down")).has_value());
  }
}

TEST(RetryPolicyTest, TerminalErrorsAreNeverGranted) {
  RetryPolicy policy({});
  EXPECT_FALSE(policy.NextRetryDelayMs(Status::OK()).has_value());
  EXPECT_FALSE(
      policy.NextRetryDelayMs(Status::ResourceExhausted("quota")).has_value());
  EXPECT_FALSE(
      policy.NextRetryDelayMs(Status::InvalidArgument("bug")).has_value());
  EXPECT_FALSE(
      policy.NextRetryDelayMs(Status::DeadlineExceeded("late")).has_value());
  EXPECT_FALSE(policy.NextRetryDelayMs(Status::NotFound("gone")).has_value());
  EXPECT_EQ(policy.retries_granted(), 0);
  // None of those touched the budget.
  EXPECT_DOUBLE_EQ(policy.budget_tokens(), kBudgetCap);
}

TEST(RetryPolicyTest, RetryableErrorsAreGrantedWithBoundedBackoff) {
  RetryPolicy policy({});
  int64_t prev = kInitialBackoffMs;
  for (int i = 0; i < 2; ++i) {
    auto delay = policy.NextRetryDelayMs(Status::Unavailable("down"));
    ASSERT_TRUE(delay.has_value());
    EXPECT_GE(*delay, kInitialBackoffMs);
    EXPECT_LE(*delay, std::min<int64_t>(
                          kMaxBackoffMs,
                          std::max<int64_t>(prev * 3, 3 * kInitialBackoffMs)));
    prev = *delay;
  }
  // Aborted (a lost version race) is the other retryable code.
  EXPECT_TRUE(policy.NextRetryDelayMs(Status::Aborted("race")).has_value());
  EXPECT_EQ(policy.retries_granted(), 3);
}

TEST(RetryPolicyTest, BackoffNeverExceedsCap) {
  RetryPolicy policy({});
  int64_t longest = 0;
  // One retry sequence long enough for the jitter walk to reach the cap.
  for (int i = 0; i < static_cast<int>(kBudgetCap); ++i) {
    auto delay = policy.NextRetryDelayMs(Status::Unavailable("down"));
    ASSERT_TRUE(delay.has_value());
    EXPECT_GE(*delay, kInitialBackoffMs);
    EXPECT_LE(*delay, kMaxBackoffMs);
    longest = std::max(longest, *delay);
  }
  EXPECT_GT(longest, kMaxBackoffMs / 3);  // the walk did reach the cap
}

TEST(RetryPolicyTest, BudgetExhaustsAndRefills) {
  RetryPolicy policy({});  // kBudgetCap tokens, retry costs 1
  DrainBudget(policy);
  // Bucket empty: a retryable error is denied, and the denial is counted.
  EXPECT_FALSE(
      policy.NextRetryDelayMs(Status::Unavailable("down")).has_value());
  EXPECT_EQ(policy.budget_denials(), 1);
  // Request starts deposit 0.1 each; 12 comfortably clear one full token
  // (10 exact deposits can land a hair under 1.0 in floating point).
  for (int i = 0; i < 12; ++i) policy.OnRequestStart();
  EXPECT_TRUE(
      policy.NextRetryDelayMs(Status::Unavailable("down")).has_value());
}

TEST(RetryPolicyTest, BudgetDepositsClampAtCap) {
  RetryPolicy policy({});
  for (int i = 0; i < 1000; ++i) policy.OnRequestStart();
  EXPECT_DOUBLE_EQ(policy.budget_tokens(), kBudgetCap);
}

TEST(RetryPolicyTest, DisabledPolicyGrantsNothing) {
  RetryPolicyOptions options;
  options.enabled = false;
  RetryPolicy policy(options);
  EXPECT_FALSE(
      policy.NextRetryDelayMs(Status::Unavailable("down")).has_value());
  EXPECT_EQ(policy.budget_denials(), 0);  // not a budget decision
  // A disabled policy also ignores server pacing hints.
  EXPECT_FALSE(
      policy.NextRetryDelayMs(Status::Overloaded("shed", 40)).has_value());
  EXPECT_EQ(policy.throttle_backoffs(), 0);
}

TEST(RetryPolicyTest, ThrottleWithHintIsServerPacedAndBudgetFree) {
  RetryPolicy policy({});
  // A shed response names its own backoff: the grant is exactly the hint
  // and costs no budget token (complying with server pacing is not load
  // amplification).
  auto delay = policy.NextRetryDelayMs(Status::Overloaded("shed", 40));
  ASSERT_TRUE(delay.has_value());
  EXPECT_EQ(*delay, 40);
  EXPECT_DOUBLE_EQ(policy.budget_tokens(), kBudgetCap);
  EXPECT_EQ(policy.throttle_backoffs(), 1);
  // A hint-less quota rejection stays terminal: retrying a quota breach
  // repeats deterministically.
  EXPECT_FALSE(
      policy.NextRetryDelayMs(Status::ResourceExhausted("quota")).has_value());
  EXPECT_EQ(policy.throttle_backoffs(), 1);
}

TEST(RetryPolicyTest, ThrottleHintGrantedEvenWithEmptyBudget) {
  RetryPolicy policy({});
  DrainBudget(policy);
  EXPECT_FALSE(
      policy.NextRetryDelayMs(Status::Unavailable("down")).has_value());
  // Budget empty, but server-paced backoff is still honored: the server
  // asked for exactly this retry.
  auto delay = policy.NextRetryDelayMs(Status::Overloaded("shed", 15));
  ASSERT_TRUE(delay.has_value());
  EXPECT_EQ(*delay, 15);
}

// --- CircuitBreaker ---------------------------------------------------

constexpr int64_t kCooldownMs = CircuitBreaker::kOpenCooldownMs;  // 3 s
static_assert(CircuitBreaker::kFailureThreshold == 3);

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  CircuitBreaker breaker({});
  EXPECT_EQ(breaker.state(0), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(10);
  breaker.RecordFailure(20);
  EXPECT_TRUE(breaker.AllowRequest(30));  // still closed at 2 failures
  breaker.RecordFailure(30);
  EXPECT_EQ(breaker.state(30), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(31));
}

TEST(CircuitBreakerTest, SuccessResetsTheStreak) {
  CircuitBreaker breaker({});
  breaker.RecordFailure(10);
  breaker.RecordFailure(20);
  breaker.RecordSuccess();
  breaker.RecordFailure(30);
  breaker.RecordFailure(40);
  EXPECT_TRUE(breaker.AllowRequest(50));  // streak restarted at the success
  EXPECT_EQ(breaker.state(50), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbeAfterCooldown) {
  CircuitBreaker breaker({});
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(100);
  EXPECT_FALSE(breaker.AllowRequest(100 + kCooldownMs - 1));
  // Cooldown elapsed: the breaker lets a probe through.
  EXPECT_TRUE(breaker.AllowRequest(100 + kCooldownMs));
  EXPECT_EQ(breaker.state(100 + kCooldownMs), CircuitBreaker::State::kHalfOpen);
  // Probe succeeds: closed again.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(100 + kCooldownMs + 1),
            CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(100 + kCooldownMs + 1));
}

TEST(CircuitBreakerTest, FailedProbeRearmsTheCooldown) {
  CircuitBreaker breaker({});
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(100);
  const TimestampMs probe = 100 + kCooldownMs;
  ASSERT_TRUE(breaker.AllowRequest(probe));  // probe
  breaker.RecordFailure(probe);              // probe failed
  EXPECT_FALSE(breaker.AllowRequest(probe + 1));
  EXPECT_FALSE(breaker.AllowRequest(probe + kCooldownMs - 1));  // fresh
  EXPECT_TRUE(breaker.AllowRequest(probe + kCooldownMs));
}

TEST(CircuitBreakerTest, NodeFaultClassification) {
  // Only statuses that indicate the node itself misbehaved trip the breaker;
  // an answered request — even an error — is proof of liveness.
  EXPECT_TRUE(CircuitBreaker::IsNodeFault(Status::Unavailable("down")));
  EXPECT_TRUE(CircuitBreaker::IsNodeFault(Status::DeadlineExceeded("late")));
  EXPECT_FALSE(CircuitBreaker::IsNodeFault(Status::OK()));
  EXPECT_FALSE(CircuitBreaker::IsNodeFault(Status::ResourceExhausted("q")));
  EXPECT_FALSE(CircuitBreaker::IsNodeFault(Status::NotFound("x")));
  EXPECT_FALSE(CircuitBreaker::IsNodeFault(Status::InvalidArgument("x")));
}

TEST(CircuitBreakerTest, DisabledBreakerAllowsEverything) {
  CircuitBreakerOptions options;
  options.enabled = false;
  CircuitBreaker breaker(options);
  for (int i = 0; i < 10; ++i) breaker.RecordFailure(i);
  EXPECT_TRUE(breaker.AllowRequest(11));
}

TEST(CircuitBreakerRegistryTest, OneBreakerPerNode) {
  CircuitBreakerRegistry registry({});
  CircuitBreaker* a = registry.Get("node-a");
  CircuitBreaker* b = registry.Get("node-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, registry.Get("node-a"));  // stable pointer
  for (int i = 0; i < 3; ++i) a->RecordFailure(10);
  EXPECT_FALSE(a->AllowRequest(11));
  EXPECT_TRUE(b->AllowRequest(11));  // isolation between nodes
}

// --- Overload shedding, client side end to end ------------------------

DeploymentOptions ShedDeploymentOptions() {
  DeploymentOptions options;
  options.regions = {{"lf", 2, /*is_primary=*/true}};
  options.instance.start_background_threads = false;
  options.instance.compaction.synchronous = true;
  options.instance.isolation_enabled = false;
  return options;
}

TEST(OverloadShedClientTest, RetryAfterHonoredWithoutBurningBudget) {
  ManualClock clock(100 * kDay);
  Deployment deployment(ShedDeploymentOptions(), &clock);
  ASSERT_TRUE(
      deployment.CreateTableEverywhere(DefaultTableSchema("profiles")).ok());
  // Force every node into brown-out level 3: reads and writes shed with a
  // retry-after hint; only critical-marked callers get through.
  for (auto* node : deployment.NodesInRegion("lf")) {
    node->instance().overload().SetLevelOverride(3);
  }
  IpsClientOptions copts;
  copts.caller = "ranker";
  copts.local_region = "lf";
  IpsClient client(copts, &deployment);
  const double budget_before = client.retry_policy().budget_tokens();

  auto read = client.GetProfileTopK("profiles", 7, 1, std::nullopt,
                                    TimeRange::Current(kDay),
                                    SortBy::kActionCount, 0, 10);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsThrottled());
  EXPECT_TRUE(read.status().has_retry_after());

  Status write = client.AddProfile("profiles", 7, clock.NowMs() - kMinute, 1,
                                   1, 42, CountVector{1});
  ASSERT_FALSE(write.ok());
  EXPECT_TRUE(write.IsThrottled());
  EXPECT_TRUE(write.has_retry_after());

  // The client re-offered each request only at server pace (hint-granted
  // backoffs observed) and spent zero retry-budget tokens doing it: shed
  // traffic slows down instead of amplifying.
  EXPECT_GT(client.retry_policy().throttle_backoffs(), 0);
  EXPECT_GE(client.retry_policy().budget_tokens(), budget_before);
  EXPECT_EQ(client.retry_policy().budget_denials(), 0);
}

TEST(OverloadShedClientTest, CriticalCallerRidesThroughBrownOut) {
  ManualClock clock(100 * kDay);
  Deployment deployment(ShedDeploymentOptions(), &clock);
  ASSERT_TRUE(
      deployment.CreateTableEverywhere(DefaultTableSchema("profiles")).ok());
  for (auto* node : deployment.NodesInRegion("lf")) {
    node->instance().overload().SetLevelOverride(3);
    node->instance().overload().SetCallerTier("checkout",
                                              RequestTier::kCritical);
  }
  IpsClientOptions copts;
  copts.caller = "checkout";
  copts.local_region = "lf";
  IpsClient client(copts, &deployment);
  // Level 3 sheds bulk/write/read but critical reads still serve (an empty
  // profile is a successful read).
  auto read = client.GetProfileTopK("profiles", 7, 1, std::nullopt,
                                    TimeRange::Current(kDay),
                                    SortBy::kActionCount, 0, 10);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
}

}  // namespace
}  // namespace ips
