#ifndef HOSR_BENCH_COMMON_SERVE_BENCH_H_
#define HOSR_BENCH_COMMON_SERVE_BENCH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "net/stream.h"
#include "obs/context.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/hardened.h"
#include "serve/snapshot.h"
#include "util/logging.h"

namespace hosr::bench {

// The harness shared by the serving-overhead benches (serve_admin,
// serve_profile, serve_reload): each prices one serving feature by
// replaying the same stream with the feature off and on, in interleaved
// pairs, and publishes the median QPS of each side.

// The fixture: a YelpLike(0.05) dataset, an untrained BPR-MF at d=10, its
// snapshot, an engine with seen-item filtering, a default hardened
// executor, and the 4096-request zipf-0.9 top-10 stream (seed 17) that
// hosr_serve would replay over the same users.
struct ServeFixture {
  ServeFixture();
  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;

  const data::Dataset dataset;
  const serve::ModelSnapshot snapshot;
  const serve::InferenceEngine engine;
  const serve::HardenedExecutor executor;
  const std::vector<net::StreamRequest> requests;
};

// Replay parallelism: more client threads than cores just measures the
// scheduler (on a 1-core runner, 4 spinning clients plus a background
// thread turn scheduling noise into fake "overhead"), so match the
// machine, capped at 4 like hosr_serve's default clients on small boxes.
size_t NumReplayClients();

// Each replay phase loops the stream until it has run this long, so its
// QPS is not startup noise.
inline constexpr int64_t kMinPhaseNanos = 500'000'000;

// Replays `requests` across NumReplayClients() threads, each request under
// its own RequestContext (trace id = stream index + 1, as in hosr_serve).
// `serve(request, token)` answers one request (token = stream index) and
// must succeed. Returns QPS.
template <typename ServeFn>
double ReplayQps(const std::vector<net::StreamRequest>& requests,
                 ServeFn serve) {
  const size_t clients = NumReplayClients();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  std::atomic<uint64_t> completed{0};
  const int64_t begin_ns = obs::NowNanos();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, clients, c] {
      const size_t begin = c * requests.size() / clients;
      const size_t end = (c + 1) * requests.size() / clients;
      uint64_t done = 0;
      while (obs::NowNanos() - begin_ns < kMinPhaseNanos) {
        for (size_t i = begin; i < end; ++i) {
          const net::StreamRequest& r = requests[i];
          const obs::ScopedRequestContext request_scope(
              obs::RequestContext{static_cast<uint64_t>(i) + 1, r.user, r.k});
          HOSR_CHECK(serve(r, static_cast<uint64_t>(i)).ok());
          ++done;
        }
      }
      completed.fetch_add(done, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      static_cast<double>(obs::NowNanos() - begin_ns) / 1e9;
  return static_cast<double>(completed.load()) / elapsed_s;
}

// The fixture's stream straight through its executor.
double ReplayQps(const ServeFixture& fixture);

// Off/on replay pairs per bench.
inline constexpr int kAbbaPairs = 5;

struct AbbaMedians {
  double off_qps = 0.0;
  double on_qps = 0.0;
};

// Runs kAbbaPairs interleaved off/on pairs and returns each side's median
// QPS. Pairs + median cancel the drift a single 0.5 s window picks up from
// a busy runner (frequency scaling, page cache, unrelated load), and the
// within-pair order flips every pair (off/on, on/off, ... — ABBA) so
// monotonic drift biases neither side.
AbbaMedians RunAbbaPairs(const std::function<double()>& off_replay,
                         const std::function<double()>& on_replay);

}  // namespace hosr::bench

#endif  // HOSR_BENCH_COMMON_SERVE_BENCH_H_
