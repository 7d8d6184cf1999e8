// Serving-path benchmarks: single-user top-K latency (the acceptance
// criterion's ≥50k QPS single-user top-10 path), the cached hot path, and
// snapshot (de)serialization. Run via run_benches.sh or:
//   ./build/bench/serve_throughput --benchmark_filter=TopK
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "common/serve_bench.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/trace.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace {

using namespace hosr;

// The serving benches' shared fixture: an untrained BPR-MF snapshot over a
// YelpLike(0.05) dataset — parameter values do not affect serving cost,
// only shapes do.
const bench::ServeFixture& Fixture() {
  static const bench::ServeFixture* fixture = new bench::ServeFixture;
  return *fixture;
}

// The acceptance path: single-user top-10 queries, cache disabled.
void BM_SingleUserTopK(benchmark::State& state) {
  const auto& engine = Fixture().engine;
  const auto k = static_cast<uint32_t>(state.range(0));
  util::Rng rng(state.thread_index() + 1);
  for (auto _ : state) {
    const auto user =
        static_cast<uint32_t>(rng.UniformInt(engine.num_users()));
    auto ranked = engine.TopKForUser(user, k);
    benchmark::DoNotOptimize(ranked.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SingleUserTopK)->Arg(10)->Arg(50)->ThreadRange(1, 4)
    ->UseRealTime();

// The cached hot path under a skewed (90% repeat) request mix.
void BM_CachedTopK(benchmark::State& state) {
  const auto& engine = Fixture().engine;
  serve::ResultCache cache;
  util::Rng rng(11);
  for (auto _ : state) {
    const bool hot = rng.Bernoulli(0.9);
    const auto user = static_cast<uint32_t>(
        hot ? rng.UniformInt(16) : rng.UniformInt(engine.num_users()));
    if (!cache.Get(user, 10)) {
      cache.Put(user, 10, engine.TopKForUser(user, 10));
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_rate"] = cache.HitRate();
}
BENCHMARK(BM_CachedTopK);

void BM_SnapshotSaveLoad(benchmark::State& state) {
  const auto& snapshot = Fixture().snapshot;
  const std::string path = "/tmp/hosr_bench_snapshot.bin";
  for (auto _ : state) {
    HOSR_CHECK(serve::SaveSnapshot(snapshot, path).ok());
    auto loaded = serve::LoadSnapshot(path);
    HOSR_CHECK(loaded.ok());
    benchmark::DoNotOptimize(loaded->factors.user_factors.data());
  }
  const double bytes_per_iter = static_cast<double>(
      (snapshot.factors.user_factors.size() +
       snapshot.factors.item_factors.size()) *
      sizeof(float));
  state.SetBytesProcessed(
      static_cast<int64_t>(bytes_per_iter * state.iterations() * 2));
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotSaveLoad);

// Re-measures the acceptance path outside the benchmark harness and
// publishes the result as a gauge, so bench_metrics/serve_throughput.json
// carries the headline QPS for tools/bench_diff comparisons across runs.
void PublishAcceptanceQps() {
  const auto& engine = Fixture().engine;
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {  // warm caches and page in factors
    benchmark::DoNotOptimize(
        engine
            .TopKForUser(
                static_cast<uint32_t>(rng.UniformInt(engine.num_users())), 10)
            .data());
  }
  const int64_t begin_ns = obs::NowNanos();
  constexpr int64_t kMinNanos = 300'000'000;
  int64_t iterations = 0;
  int64_t elapsed_ns = 0;
  while (elapsed_ns < kMinNanos) {
    for (int i = 0; i < 256; ++i) {
      const auto user =
          static_cast<uint32_t>(rng.UniformInt(engine.num_users()));
      benchmark::DoNotOptimize(engine.TopKForUser(user, 10).data());
    }
    iterations += 256;
    elapsed_ns = obs::NowNanos() - begin_ns;
  }
  const double qps =
      static_cast<double>(iterations) / (static_cast<double>(elapsed_ns) / 1e9);
  obs::Registry::Global()
      .GetGauge("bench/serve_throughput/single_user_top10_qps")
      ->Set(qps);
  std::printf("acceptance path: single-user top-10 = %.0f QPS\n", qps);
}

}  // namespace

// Like micro_complexity: --benchmark_* flags go to the benchmark library,
// everything else (--metrics_out, --trace_out, ...) to hosr::obs.
int main(int argc, char** argv) {
  std::vector<char*> benchmark_args{argv[0]};
  std::vector<char*> hosr_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (hosr::util::StartsWith(argv[i], "--benchmark_")) {
      benchmark_args.push_back(argv[i]);
    } else {
      hosr_args.push_back(argv[i]);
    }
  }
  hosr::obs::InitFromFlags(hosr::util::Flags::Parse(
      static_cast<int>(hosr_args.size()), hosr_args.data()));
  int benchmark_argc = static_cast<int>(benchmark_args.size());
  benchmark::Initialize(&benchmark_argc, benchmark_args.data());
  if (benchmark::ReportUnrecognizedArguments(benchmark_argc,
                                             benchmark_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  PublishAcceptanceQps();
  benchmark::Shutdown();
  return 0;
}
