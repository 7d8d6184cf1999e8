// Measures the serving-path cost of continuous profiling + time-series
// telemetry (docs/OBSERVABILITY.md): replays a zipf-skewed single-user
// top-10 stream through the hardened executor in interleaved disarmed/armed
// pairs — armed means the SIGPROF sampling profiler (99 Hz) AND the
// timeseries recorder (250ms cadence, far hotter than the 1s default) run
// for the whole replay — and publishes the median QPS of each side plus
// their ratio as gauges. The acceptance bar is parity: the armed replay
// must stay within 5% of disarmed (the profiler is off the request path;
// all it costs is signal delivery + the collector thread's drains).
//
// Run via run_benches.sh (picked up like every bench) or directly:
//   ./build/bench/serve_profile --metrics_out=bench_metrics/serve_profile.json
#include <cstdint>
#include <cstdio>

#include "common/serve_bench.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/reporter.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/logging.h"

using namespace hosr;

int main(int argc, char** argv) {
  obs::InitFromFlags(util::Flags::Parse(argc, argv));
  // Span/histogram capture on for BOTH phases so the only delta between
  // them is the profiler + recorder, not instrumentation cost.
  obs::SetEnabled(true);

  const bench::ServeFixture fixture;
  (void)bench::ReplayQps(fixture);  // warmup

  // Each armed phase start/stops a fresh profiler session and recorder,
  // which also exercises the rearm path the /profilez window endpoint
  // depends on.
  uint64_t total_samples = 0;
  uint64_t total_dropped = 0;
  const auto armed_replay = [&] {
    obs::Profiler::Options profiler_options;
    profiler_options.hz = 99;
    HOSR_CHECK(obs::Profiler::Global().Start(profiler_options).ok());
    obs::TimeseriesRecorder::Options recorder_options;
    recorder_options.snapshot_interval_s = 0.25;
    HOSR_CHECK(obs::TimeseriesRecorder::Global().Start(recorder_options).ok());
    const double qps = bench::ReplayQps(fixture);
    obs::TimeseriesRecorder::Global().Stop();
    const obs::Profile profile = obs::Profiler::Global().StopAndCollect();
    total_samples += profile.samples;
    total_dropped += profile.dropped;
    return qps;
  };
  const auto [qps_off, qps_on] = bench::RunAbbaPairs(
      [&] { return bench::ReplayQps(fixture); }, armed_replay);

  const double penalty = qps_off / qps_on;
  auto& registry = obs::Registry::Global();
  registry.GetGauge("bench/serve_profile/replay_top10_qps_disarmed")
      ->Set(qps_off);
  registry.GetGauge("bench/serve_profile/replay_top10_qps_armed")
      ->Set(qps_on);
  registry.GetGauge("bench/serve_profile/profile_overhead_penalty")
      ->Set(penalty);
  registry.GetGauge("bench/serve_profile/profile_samples_per_replay")
      ->Set(static_cast<double>(total_samples) / bench::kAbbaPairs);
  registry.GetGauge("bench/serve_profile/profile_dropped_samples")
      ->Set(static_cast<double>(total_dropped));
  std::printf(
      "disarmed: %.0f QPS | armed: %.0f QPS (%.1f%% overhead, median of %d "
      "pairs, %llu stack samples, %llu dropped)\n",
      qps_off, qps_on, (penalty - 1.0) * 100.0, bench::kAbbaPairs,
      static_cast<unsigned long long>(total_samples),
      static_cast<unsigned long long>(total_dropped));
  return 0;
}
