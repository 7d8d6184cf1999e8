#ifndef HOSR_SERVE_HARDENED_H_
#define HOSR_SERVE_HARDENED_H_

#include <cstdint>

#include "serve/degraded.h"
#include "serve/engine.h"
#include "serve/retry.h"
#include "util/statusor.h"

namespace hosr::serve {

// A served ranking plus how it was produced: `degraded` marks popularity
// fallback results so clients can distinguish them from full-engine answers;
// `from_cache` marks answers replayed from a ResultCache.
struct ServeResponse {
  RankedItems items;
  bool degraded = false;
  bool from_cache = false;
};

// Attempt tokens must be distinct per (request, attempt) so each attempt's
// fault draw is independent; retry.max_attempts must stay below this (16
// attempts per request is far above any sane retry cap).
inline constexpr uint32_t kMaxAttemptsPerRequest = 16;

struct HardenedOptions {
  RetryPolicy::Options retry;
  // Per-request latency budget in milliseconds; 0 disables deadlines.
  double deadline_ms = 0.0;
  // Fallback ranker; null disables degraded serving (failures propagate).
  const DegradedRanker* degraded = nullptr;
  // Seeds the per-request retry jitter streams.
  uint64_t seed = 1;
  // When true the deadline is also enforced against the wall clock (the
  // engine sees an absolute deadline and queue-expired requests fail
  // fast). When false only the deterministic budget accounting below
  // applies — the mode fault-injection tests run in, so outcome counts are
  // bit-reproducible across runs (docs/ROBUSTNESS.md).
  bool use_wall_clock = false;
};

// Per-request hardening pipeline behind every serving path (the NetServer
// and the hosr_serve replay driver, via ServingState::Serve). One Execute()
// call is one request:
//
//   1. deadline gate — an already-expired request fails fast with
//      DeadlineExceeded (never reaches the engine);
//   2. engine attempt — TryTopKForUser with the request's fault token;
//   3. retry — transient errors (Unavailable, ResourceExhausted) back off
//      with decorrelated jitter and try again, capped by max_attempts and
//      by the deadline budget: every planned backoff is charged against
//      deadline_ms, so a request never sleeps past its deadline;
//   4. degrade — when attempts are exhausted (or the engine itself ran out
//      of deadline mid-scan) and budget remains, the DegradedRanker serves
//      a popularity answer flagged `degraded = true`;
//   5. give up — a blown budget is DeadlineExceeded; anything else
//      propagates the engine's last status.
//
// Outcome counters: serve/deadline_exceeded, serve/degraded, serve/retries.
// Each Execute() also records a "serve/request" span and an observation in
// the serve/request_latency_ms histogram (carrying the caller's request
// context as an exemplar), reports the outcome to obs::HealthTracker
// (deadline-exceeded and hard errors count against health), and notifies
// the flight recorder on deadline-exceeded so bursts trigger a dump.
//
// Determinism: the retry schedule is seeded by (seed, token) and fault
// decisions by (fault seed, token, attempt), so with use_wall_clock off a
// request's outcome is a pure function of its token.
class HardenedExecutor {
 public:
  // `engine` (and `options.degraded`, when set) must outlive the executor.
  HardenedExecutor(const InferenceEngine* engine, HardenedOptions options);

  // Serves one request. `token` must uniquely identify the request within
  // the run (e.g. its stream index). Thread-safe.
  util::StatusOr<ServeResponse> Execute(uint32_t user, uint32_t k,
                                        uint64_t token) const;

  // As above with an explicit absolute wall-clock deadline for THIS request
  // (the network path: a client's wire deadline_ms, converted at decode
  // time). kNoDeadline falls back to the configured options. A per-request
  // deadline is always wall-clock enforced — it lands in the engine's
  // per-block checks and caps the retry budget at the remaining time, and
  // tightens (never loosens) any options-level deadline_ms.
  util::StatusOr<ServeResponse> Execute(uint32_t user, uint32_t k,
                                        uint64_t token,
                                        Deadline deadline) const;

  const HardenedOptions& options() const { return options_; }

 private:
  // The un-instrumented pipeline; Execute() wraps it with span/latency/
  // health/flight-recorder bookkeeping.
  util::StatusOr<ServeResponse> ExecuteInternal(uint32_t user, uint32_t k,
                                                uint64_t token,
                                                Deadline deadline) const;

  const InferenceEngine* engine_;
  HardenedOptions options_;
};

}  // namespace hosr::serve

#endif  // HOSR_SERVE_HARDENED_H_
