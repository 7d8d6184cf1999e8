// Open-loop load generator: Poisson arrivals drawn from the seed, sent over
// blocking NetClient connections. Each request is timed from the moment it
// was due, so a stall also charges the wait it imposes on later requests,
// and the generator reports how late it ran.
#ifndef HOSR_PERFBENCH_LOADGEN_H_
#define HOSR_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/random.h"

namespace hosr::perfbench {

struct Arrival {
  int64_t due_ns;  // offset from the phase start
  uint32_t user;
};

// Poisson arrivals at `rate` req/s for `seconds`; users are uniform when
// zipf <= 0, else Zipf(zipf) over the user ids.
std::vector<Arrival> PoissonSchedule(double rate, double seconds,
                                     uint32_t num_users, double zipf,
                                     util::Rng* rng);

struct Reply {
  int64_t due_ns = 0;  // absolute steady-clock times
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  uint32_t user = 0;
  bool ok = false;
  bool from_cache = false;
  bool degraded = false;
  bool matches = false;  // the answer passed the run's Verifier
};

// Checks a served ranking for a user; called from the client threads, so
// it must be safe to call concurrently.
using Verifier =
    std::function<bool(uint32_t user, const std::vector<uint32_t>& items)>;

struct PhaseStats {
  size_t sent = 0;
  size_t ok = 0;      // answered, not degraded
  size_t failed = 0;  // errors, refusals and degraded answers
  double offered_rate = 0.0;
  // Latency from the due time; failed requests count as infinitely slow.
  double p50_us = 0.0;
  double p99_us = 0.0;
  double tail_us = 0.0;  // p99.9, or the highest percentile with ten beyond
  // NetClient::Query from send to reply, answered requests only.
  double query_p50_us = 0.0;
  double query_p99_us = 0.0;
  // How late the generator sent: send time minus due time.
  double late_p99_us = 0.0;
};

// Sends `schedule` to 127.0.0.1:`port` over `connections` blocking
// clients; a free connection takes the next due request. Each answer is
// checked by `verify` as it arrives. With span recording on, each request
// adds a gen.request span from due to reply with a net.query child from
// send to reply, sharing trace id `trace_base` + index.
std::vector<Reply> RunOpenLoop(int port, const std::vector<Arrival>& schedule,
                               int connections, uint32_t k,
                               uint64_t trace_base, const Verifier& verify);

// Closed loop: each connection sends its next request as soon as its
// previous reply arrives, for `seconds`, taking users in turn from `users`
// (wrapping around). Each reply's due time is its send time.
std::vector<Reply> RunClosedLoop(int port, const std::vector<uint32_t>& users,
                                 int connections, uint32_t k, double seconds,
                                 uint64_t trace_base, const Verifier& verify);

PhaseStats Summarize(const std::vector<Reply>& replies, double seconds);

}  // namespace hosr::perfbench

#endif  // HOSR_PERFBENCH_LOADGEN_H_
