// Client-side retry/deadline policy for cluster RPCs and root transactions.
//
// Every Cluster entry point (Get/Put/Scan/CheckAndPut/Increment) and the
// txn-layer submit path share one taxonomy: kUnavailable errors (lost RPCs,
// dead/fenced region servers, crashed txn slaves, regions mid-reassignment)
// are *retryable*; everything else (NotFound, Aborted, FailedPrecondition,
// ...) passes through untouched. Retries back off exponentially with seeded
// jitter, capped, against a per-operation virtual-time deadline. Backoff is
// charged to the session's CostMeter as virtual time, so retries show up in
// benchmark tail latencies instead of hiding in host sleeps.
//
// Policies are opt-in per Session (default: no retries), so deterministic
// fault schedules in existing tests keep their exact hit sequences.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/rng.h"
#include "common/status.h"

namespace synergy::hbase {

/// Tunable knobs for one client's retry behavior. Values are virtual µs.
struct RetryPolicy {
  int max_attempts = 8;              // total attempts, including the first
  double initial_backoff_us = 2000;  // first retry delay
  double max_backoff_us = 256000;    // cap for the exponential growth
  double backoff_multiplier = 2.0;
  double jitter_fraction = 0.25;     // each delay *= 1 ± U(0,jitter_fraction)
  double deadline_us = 10000000;     // per-operation budget; <= 0 disables
  uint64_t jitter_seed = 0xC0FFEE;   // seeds the jitter stream (deterministic)

  // ---- Overload protection (all opt-in; 0 disables) ----
  // Token-bucket retry budget: each granted retry spends one token, each
  // successful op refills `retry_budget_refill` tokens (capped at the max).
  // Bounds retry traffic to a fraction of fresh traffic, so a brown-out
  // cannot be amplified into a retry storm. 0 = unlimited retries.
  double retry_budget_max = 0.0;
  double retry_budget_refill = 0.1;
  // Circuit breaker: after this many *consecutive* overload rejections
  // (kResourceExhausted) the session fails fast without issuing RPCs, then
  // half-opens after `breaker_cooldown_us` of virtual time to let one probe
  // through. 0 = no breaker.
  int breaker_trip_overloads = 0;
  double breaker_cooldown_us = 500000.0;
};

/// True for errors the policy may retry: kUnavailable (lost RPC, timeout,
/// dead server, region mid-move, crashed slave). kDeadlineExceeded itself is
/// terminal, as is every application-level code — including
/// kResourceExhausted: retrying an overloaded server amplifies the overload.
bool IsRetryable(const Status& status);

/// True for overload rejections (admission shed, full slave queue, open
/// circuit breaker). Never retried; trips the session's circuit breaker.
bool IsOverloaded(const Status& status);

/// Per-operation retry state: owns the jitter RNG and the deadline anchor.
/// Usage:
///   RetryController retry(policy, meter.micros());
///   for (;;) {
///     Status s = DoRpc();
///     if (s.ok()) break;
///     auto d = retry.OnFailure(s, meter.micros());
///     if (!d.retry) return d.final_status;
///     meter.Charge(d.backoff_us);
///   }
class RetryController {
 public:
  RetryController(const RetryPolicy& policy, double start_virtual_us)
      : policy_(policy),
        start_us_(start_virtual_us),
        next_backoff_us_(policy.initial_backoff_us),
        rng_(policy.jitter_seed) {}

  struct Decision {
    bool retry = false;
    double backoff_us = 0.0;  // virtual time to charge before the next try
    Status final_status;      // meaningful only when !retry
  };

  /// Decide what to do after a failed attempt at virtual time `now_us`.
  /// Non-retryable statuses pass through unchanged; exhausted attempts
  /// surface the last error; a blown deadline surfaces kDeadlineExceeded
  /// (wrapping the last error's message for replay forensics).
  Decision OnFailure(const Status& status, double now_us);

  /// Attempts made so far (1 after the first OnFailure call).
  int attempts() const { return attempts_; }
  /// Retries granted so far (attempts - 1, never negative).
  int retries_granted() const { return attempts_ > 0 ? attempts_ - 1 : 0; }

  /// Virtual µs left before the deadline, or a large value when disabled.
  double DeadlineRemaining(double now_us) const;

 private:
  RetryPolicy policy_;
  double start_us_;
  double next_backoff_us_;
  int attempts_ = 0;
  Rng rng_;
};

/// Session-scoped token bucket bounding retry traffic. Not synchronized:
/// only the thread driving the session touches it.
class RetryBudget {
 public:
  explicit RetryBudget(const RetryPolicy& policy)
      : max_(policy.retry_budget_max),
        refill_(policy.retry_budget_refill),
        tokens_(policy.retry_budget_max) {}

  /// Spend one token for a retry; false when the bucket is empty (the
  /// caller must surface the error instead of retrying).
  bool TrySpend() {
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  /// Each success earns back a fraction of a token.
  void OnSuccess() { tokens_ = std::min(max_, tokens_ + refill_); }

  double tokens() const { return tokens_; }

 private:
  double max_;
  double refill_;
  double tokens_;
};

/// Session-scoped circuit breaker over overload rejections. Closed: ops flow
/// normally. Open: ops fail fast with kResourceExhausted, without touching
/// the cluster, until `breaker_cooldown_us` of virtual time has passed.
/// Half-open: one probe op is let through; success closes the breaker,
/// another overload re-opens it. Same single-driver threading contract as
/// RetryBudget.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(const RetryPolicy& policy)
      : trip_threshold_(policy.breaker_trip_overloads),
        cooldown_us_(policy.breaker_cooldown_us) {}

  /// Gate before the first attempt of an op. OK while closed (or when the
  /// cooldown elapsed — the op becomes the half-open probe); fails fast with
  /// kResourceExhausted while open.
  Status Admit(double now_us);

  void OnSuccess();
  void OnOverload(double now_us);

  State state() const { return state_; }
  int consecutive_overloads() const { return consecutive_; }
  int64_t trips() const { return trips_; }
  int64_t fast_failures() const { return fast_failures_; }

 private:
  int trip_threshold_;
  double cooldown_us_;
  State state_ = State::kClosed;
  int consecutive_ = 0;
  double opened_at_us_ = 0.0;
  int64_t trips_ = 0;
  int64_t fast_failures_ = 0;
};

}  // namespace synergy::hbase
