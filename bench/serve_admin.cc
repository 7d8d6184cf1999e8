// Measures the serving-path cost of the live admin endpoint
// (docs/OBSERVABILITY.md): replays a zipf-skewed single-user top-10 stream
// through the hardened executor in interleaved off/on pairs — no poller vs
// a poller cycling /metricsz /healthz /readyz /varz /tracez the whole time
// — and publishes the median QPS of each side plus their ratio as gauges.
// The acceptance bar is parity: the admin-on replay must stay within a few
// percent of admin-off.
//
// Run via run_benches.sh (picked up like every bench) or directly:
//   ./build/bench/serve_admin --metrics_out=bench_metrics/serve_admin.json
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/serve_bench.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/logging.h"

using namespace hosr;

int main(int argc, char** argv) {
  obs::InitFromFlags(util::Flags::Parse(argc, argv));
  // Span/histogram capture on for BOTH phases so the only delta between
  // them is the live admin server + its pollers, not instrumentation cost.
  obs::SetEnabled(true);

  const bench::ServeFixture fixture;
  (void)bench::ReplayQps(fixture);  // warmup

  // The admin server stays live the whole time; what alternates per pair is
  // whether a poller is hammering it.
  //
  // The poller cycles all five endpoints at a scraper-like cadence (one
  // request every 100ms — a full cycle over all five endpoints per >=0.5s
  // replay; real scrapers run on multi-second intervals, so this is still
  // an order of magnitude hotter than production). On a single-core runner
  // every handler cycle is stolen directly from the replay threads, which
  // makes this the worst case.
  obs::AdminServer admin(obs::AdminServer::Options{.port = 0});
  HOSR_CHECK(admin.Start().ok());
  admin.SetVar("binary", "serve_admin_bench");
  obs::HealthTracker::Global().SetReady(true);

  uint64_t total_polls = 0;
  const auto polled_replay = [&] {
    std::atomic<bool> stop_polling{false};
    std::atomic<uint64_t> polls{0};
    std::thread poller([&] {
      const char* paths[] = {"/metricsz", "/healthz", "/readyz", "/varz",
                             "/tracez"};
      size_t i = 0;
      while (!stop_polling.load(std::memory_order_relaxed)) {
        auto response = obs::AdminHttpGet(admin.port(), paths[i % 5]);
        HOSR_CHECK(response.ok());
        ++i;
        polls.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
    const double qps = bench::ReplayQps(fixture);
    stop_polling.store(true);
    poller.join();
    total_polls += polls.load();
    return qps;
  };
  const auto [qps_off, qps_on] = bench::RunAbbaPairs(
      [&] { return bench::ReplayQps(fixture); }, polled_replay);
  admin.Stop();

  const double penalty = qps_off / qps_on;
  auto& registry = obs::Registry::Global();
  registry.GetGauge("bench/serve_admin/replay_top10_qps_admin_off")
      ->Set(qps_off);
  registry.GetGauge("bench/serve_admin/replay_top10_qps_admin_on")
      ->Set(qps_on);
  registry.GetGauge("bench/serve_admin/admin_overhead_penalty")->Set(penalty);
  registry.GetGauge("bench/serve_admin/admin_polls_per_replay")
      ->Set(static_cast<double>(total_polls) / bench::kAbbaPairs);
  std::printf(
      "admin off: %.0f QPS | admin on: %.0f QPS (%.1f%% overhead, median of "
      "%d pairs, %llu endpoint polls total)\n",
      qps_off, qps_on, (penalty - 1.0) * 100.0, bench::kAbbaPairs,
      static_cast<unsigned long long>(total_polls));
  return 0;
}
