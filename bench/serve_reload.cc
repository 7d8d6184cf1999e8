// Measures the serving-path cost of hot-reload readiness
// (docs/ROBUSTNESS.md "Hot reload & overload control"): replays a
// zipf-skewed single-user top-10 stream in interleaved off/on pairs —
// a pinned engine + executor vs a SnapshotManager with its mtime watcher
// polling, where every request pays the RCU Acquire() (one atomic
// shared_ptr load) before executing — and publishes the median QPS of each
// side plus their ratio as gauges. The acceptance bar is parity: the
// manager-armed replay must stay within a few percent of static serving
// (the ISSUE gate is <5% QPS overhead).
//
// Run via run_benches.sh (picked up like every bench) or directly:
//   ./build/bench/serve_reload --metrics_out=bench_metrics/serve_reload.json
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "common/serve_bench.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/trace.h"
#include "serve/reload.h"
#include "util/flags.h"
#include "util/logging.h"

using namespace hosr;

int main(int argc, char** argv) {
  obs::InitFromFlags(util::Flags::Parse(argc, argv));
  obs::SetEnabled(true);

  // Static side: the fixture's bare engine + executor pinned for the
  // process lifetime, with no manager in front — the baseline the reload
  // side is priced against.
  const bench::ServeFixture fixture;

  // Reload side: the same snapshot behind a SnapshotManager with its
  // watcher thread polling at the hosr_serve default cadence the whole
  // time — the steady-state cost of being hot-swappable, not of swapping.
  const std::string artifact =
      (std::filesystem::temp_directory_path() / "hosr_serve_reload_bench")
          .string();
  HOSR_CHECK(serve::SaveSnapshot(fixture.snapshot, artifact).ok());
  serve::SnapshotManager::Options manager_options;
  manager_options.path = artifact;
  manager_options.seen = &fixture.dataset.interactions;
  manager_options.poll_interval_s = 0.5;
  auto manager = serve::SnapshotManager::Create(std::move(manager_options),
                                                fixture.snapshot);
  HOSR_CHECK(manager.ok());
  (*manager)->StartWatcher();

  const auto static_replay = [&] { return bench::ReplayQps(fixture); };
  // Every request pays manager->Acquire() exactly as net::NetServer does.
  const auto reload_replay = [&] {
    return bench::ReplayQps(
        fixture.requests, [&](const net::StreamRequest& r, uint64_t token) {
          const std::shared_ptr<const serve::ServingState> state =
              (*manager)->Acquire();
          return state->executor().Execute(r.user, r.k, token);
        });
  };

  // Warmup both sides once.
  (void)static_replay();
  (void)reload_replay();

  const auto [qps_static, qps_reload] =
      bench::RunAbbaPairs(static_replay, reload_replay);
  (*manager)->Stop();
  std::error_code ec;
  std::filesystem::remove(artifact, ec);

  const double penalty = qps_static / qps_reload;
  auto& registry = obs::Registry::Global();
  registry.GetGauge("bench/serve_reload/replay_top10_qps_static")
      ->Set(qps_static);
  registry.GetGauge("bench/serve_reload/replay_top10_qps_manager")
      ->Set(qps_reload);
  registry.GetGauge("bench/serve_reload/reload_overhead_penalty")
      ->Set(penalty);
  std::printf(
      "static: %.0f QPS | manager-armed: %.0f QPS (%.1f%% overhead, median "
      "of %d ABBA pairs)\n",
      qps_static, qps_reload, (penalty - 1.0) * 100.0, bench::kAbbaPairs);
  return 0;
}
