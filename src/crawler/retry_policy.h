// RetryPolicy: capped exponential backoff with deterministic jitter for
// transient source failures, over a simulated clock.
//
// Real hidden-Web crawls run for days against sources that time out and
// rate-limit (§5.4); a crawler that dies on the first 503 never
// finishes. The policy decides, per failed page fetch,
//
//   * whether the failure is worth retrying (kUnavailable,
//     kDeadlineExceeded, kResourceExhausted are transient; everything
//     else is a bug or a permanent condition),
//   * whether the value's retry budget still allows another attempt, and
//   * how long to back off before it, in simulated clock ticks:
//     capped exponential growth plus deterministic jitter (a hash of
//     seed/value/attempt stands in for wall-clock entropy, keeping runs
//     bit-reproducible), never less than the server's retry-after hint.
//
// Retried fetches are real round trips and count into the paper's
// communication-round cost; backoff ticks only advance the simulated
// clock. When the per-drain budget is exhausted the crawler degrades
// gracefully: the value is re-queued at the frontier tail up to
// `max_requeues` times, then abandoned (see
// DegradationTracker::OnFetchFailure in crawl_engine.h).

#ifndef DEEPCRAWL_CRAWLER_RETRY_POLICY_H_
#define DEEPCRAWL_CRAWLER_RETRY_POLICY_H_

#include <cstdint>

#include "src/relation/types.h"
#include "src/util/status.h"

namespace deepcrawl {

struct RetryPolicyConfig {
  // Maximum failed attempts per drain of one value before giving up
  // (must be >= 1; 1 = no retries).
  uint32_t max_attempts = 4;
  // Backoff window for the first retry, in simulated clock ticks.
  uint64_t initial_backoff_ticks = 1;
  // Cap on the backoff window.
  uint64_t max_backoff_ticks = 16;
  // Window growth per consecutive failure.
  double backoff_multiplier = 2.0;
  // Fraction of the window randomized by deterministic jitter (0 = full
  // window every time, 1 = uniform over [1, window]).
  double jitter = 0.5;
  // How many times an exhausted value is re-queued at the frontier tail
  // before being abandoned.
  uint32_t max_requeues = 2;
  // Seed for the jitter hash; distinct seeds decorrelate fleets.
  uint64_t seed = 0x5eed;
};

// Discrete simulated time. Backoff waits advance this clock instead of
// sleeping, so a multi-day crawl's retry behaviour replays in
// microseconds and stays deterministic.
class SimulatedClock {
 public:
  uint64_t now() const { return now_; }
  void Advance(uint64_t ticks) { now_ += ticks; }
  // Restores a checkpointed time (see src/crawler/checkpoint.h).
  void set_now(uint64_t now) { now_ = now; }

 private:
  uint64_t now_ = 0;
};

class RetryPolicy {
 public:
  explicit RetryPolicy(RetryPolicyConfig config = RetryPolicyConfig());

  // Transient failures worth retrying; kOutOfRange / kInvalidArgument /
  // etc. are not (retrying cannot change the answer).
  static bool IsRetryable(const Status& status);

  // Whether attempt number `failures` (count of failed fetches of the
  // current drain, >= 1) leaves budget for another try.
  bool ShouldRetry(const Status& status, uint32_t failures) const;

  // Backoff before retry number `failures`, in simulated ticks: capped
  // exponential window, jittered deterministically by (seed, value,
  // failures), floored at the status's retry-after hint. Always >= 1.
  uint64_t BackoffTicks(const Status& status, uint32_t failures,
                        ValueId value) const;

  // The server-advertised hard floor on when this failure may be
  // followed by another fetch: the status's retry-after hint, or 0 when
  // it carries none. BackoffTicks already applies it to retries; the
  // give-up paths (re-queue / abandon) must charge it too — a 429's
  // hint binds the *source*, not the value that happened to trigger it,
  // so giving up on the value does not license an earlier fetch.
  uint64_t FloorTicks(const Status& status) const;

  const RetryPolicyConfig& config() const { return config_; }

 private:
  RetryPolicyConfig config_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_RETRY_POLICY_H_
