// Microbenchmarks backing the Sec. 2.5 complexity analysis:
//  * SpMM cost is linear in nnz(L) and in d (the k|L|d^2 propagation term);
//  * one HOSR training step scales linearly in the layer count k;
//  * a HOSR epoch is within a small constant of a TrustSVD epoch
//    ("the complexity is compatible to that of TrustSVD").
// Every case runs its kernels on util::ThreadPool workers, so each one
// reports wall time (UseRealTime): the harness's default per-thread CPU
// time would miss the workers' share and overstate throughput.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "core/hosr.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "graph/laplacian.h"
#include "graph/spmm.h"
#include "models/trust_svd.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/trace.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace {

using namespace hosr;

const data::Dataset& BenchDataset() {
  static const data::Dataset* dataset = [] {
    auto result =
        data::GenerateSynthetic(data::SyntheticConfig::YelpLike(0.08));
    HOSR_CHECK(result.ok());
    return new data::Dataset(std::move(result).value());
  }();
  return *dataset;
}

// --- SpMM scaling in nnz -----------------------------------------------------

void BM_SpmmScalingNnz(benchmark::State& state) {
  const auto edges_per_node = static_cast<uint32_t>(state.range(0));
  const uint32_t n = 4000;
  util::Rng rng(1);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t i = 1; i < n; ++i) {
    for (uint32_t e = 0; e < edges_per_node; ++e) {
      edges.emplace_back(i, static_cast<uint32_t>(rng.UniformInt(i)));
    }
  }
  auto graph = graph::SocialGraph::FromEdges(n, edges);
  HOSR_CHECK(graph.ok());
  const graph::CsrMatrix laplacian =
      graph::NormalizedLaplacian(graph->adjacency());
  tensor::Matrix dense(n, 10);
  tensor::GaussianInit(&dense, 1.0f, &rng);
  tensor::Matrix out(n, 10);
  for (auto _ : state) {
    graph::Spmm(laplacian, dense, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["nnz"] = static_cast<double>(laplacian.nnz());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(laplacian.nnz()) * 10);
}
BENCHMARK(BM_SpmmScalingNnz)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->UseRealTime();

// --- SpMM scaling in d --------------------------------------------------------

void BM_SpmmScalingDim(benchmark::State& state) {
  const auto d = static_cast<size_t>(state.range(0));
  const data::Dataset& dataset = BenchDataset();
  const graph::CsrMatrix laplacian =
      graph::NormalizedLaplacian(dataset.social.adjacency());
  util::Rng rng(2);
  tensor::Matrix dense(dataset.num_users(), d);
  tensor::GaussianInit(&dense, 1.0f, &rng);
  tensor::Matrix out(dataset.num_users(), d);
  for (auto _ : state) {
    graph::Spmm(laplacian, dense, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(laplacian.nnz() * d));
}
BENCHMARK(BM_SpmmScalingDim)->Arg(5)->Arg(10)->Arg(20)->Arg(40)
    ->UseRealTime();

// --- GEMM baseline -------------------------------------------------------------

void BM_GemmEmbeddingTransform(benchmark::State& state) {
  const auto d = static_cast<size_t>(state.range(0));
  util::Rng rng(3);
  tensor::Matrix a(BenchDataset().num_users(), d), w(d, d);
  tensor::GaussianInit(&a, 1.0f, &rng);
  tensor::GaussianInit(&w, 1.0f, &rng);
  tensor::Matrix out(a.rows(), d);
  for (auto _ : state) {
    tensor::Gemm(a, false, w, false, 1.0f, 0.0f, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.rows() * d * d));
}
BENCHMARK(BM_GemmEmbeddingTransform)->Arg(5)->Arg(10)->Arg(20)
    ->UseRealTime();

// --- Training steps ------------------------------------------------------------

// One training step: the model's loss on a fresh 512-triple batch and its
// backward pass (no optimizer step).
void TrainStep(models::RankingModel* model, data::BprSampler* sampler,
               util::Rng* rng) {
  const data::BprBatch batch = sampler->SampleBatch(512);
  autograd::Tape tape;
  autograd::Value loss = model->BuildLoss(&tape, batch, rng);
  model->params()->ZeroGrad();
  tape.Backward(loss);
  benchmark::DoNotOptimize(model->params()->at(0)->grad.data());
}

void RunTrainSteps(benchmark::State& state, models::RankingModel* model) {
  data::BprSampler sampler(&BenchDataset().interactions, 5);
  util::Rng rng(6);
  for (auto _ : state) TrainStep(model, &sampler, &rng);
}

// --- One HOSR training step vs layer count ------------------------------------

void BM_HosrStepVsLayers(benchmark::State& state) {
  core::Hosr::Config config;
  config.embedding_dim = 10;
  config.num_layers = static_cast<uint32_t>(state.range(0));
  config.graph_dropout = 0.0f;
  config.seed = 4;
  core::Hosr model(BenchDataset(), config);
  RunTrainSteps(state, &model);
}
BENCHMARK(BM_HosrStepVsLayers)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->UseRealTime();

// --- HOSR vs TrustSVD epoch cost (Sec. 2.5 comparability claim) -----------------

void BM_TrainStepTrustSvd(benchmark::State& state) {
  models::TrustSvd::Config config;
  config.embedding_dim = 10;
  config.seed = 4;
  models::TrustSvd model(BenchDataset(), config);
  RunTrainSteps(state, &model);
}
BENCHMARK(BM_TrainStepTrustSvd)->UseRealTime();

void BM_TrainStepHosr3(benchmark::State& state) {
  core::Hosr::Config config;
  config.embedding_dim = 10;
  config.num_layers = 3;
  config.graph_dropout = 0.0f;
  config.seed = 4;
  core::Hosr model(BenchDataset(), config);
  RunTrainSteps(state, &model);
}
BENCHMARK(BM_TrainStepHosr3)->UseRealTime();

// --- Full-score inference (the |Y|d prediction term) ----------------------------

void BM_HosrScoreAllItems(benchmark::State& state) {
  const data::Dataset& dataset = BenchDataset();
  core::Hosr::Config config;
  config.embedding_dim = 10;
  config.num_layers = 3;
  config.seed = 4;
  core::Hosr model(dataset, config);
  std::vector<uint32_t> users(256);
  for (uint32_t i = 0; i < users.size(); ++i) users[i] = i;
  for (auto _ : state) {
    const tensor::Matrix scores = model.ScoreAllItems(users);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(users.size()) *
                          dataset.num_items());
}
BENCHMARK(BM_HosrScoreAllItems)->UseRealTime();

// Times `steps` training steps of `model` directly (outside the benchmark
// harness) and returns the average microseconds per step.
double MeasureStepMicros(models::RankingModel* model, int steps) {
  data::BprSampler sampler(&BenchDataset().interactions, 5);
  util::Rng rng(6);
  const int64_t begin_ns = obs::NowNanos();
  for (int i = 0; i < steps; ++i) TrainStep(model, &sampler, &rng);
  return static_cast<double>(obs::NowNanos() - begin_ns) / 1e3 / steps;
}

// Publishes the headline Sec. 2.5 comparability number — the HOSR-3 /
// TrustSVD per-step cost ratio — as a gauge for bench_diff trajectories.
void PublishStepCostGauges() {
  const data::Dataset& dataset = BenchDataset();
  core::Hosr::Config hosr_config;
  hosr_config.embedding_dim = 10;
  hosr_config.num_layers = 3;
  hosr_config.graph_dropout = 0.0f;
  hosr_config.seed = 4;
  core::Hosr hosr(dataset, hosr_config);
  models::TrustSvd::Config trust_config;
  trust_config.embedding_dim = 10;
  trust_config.seed = 4;
  models::TrustSvd trust(dataset, trust_config);
  constexpr int kSteps = 16;
  MeasureStepMicros(&hosr, 2);   // warmup
  MeasureStepMicros(&trust, 2);  // warmup
  const double hosr_us = MeasureStepMicros(&hosr, kSteps);
  const double trust_us = MeasureStepMicros(&trust, kSteps);
  auto& registry = hosr::obs::Registry::Global();
  registry.GetGauge("bench/micro_complexity/hosr3_step_us")->Set(hosr_us);
  registry.GetGauge("bench/micro_complexity/trustsvd_step_us")->Set(trust_us);
  registry.GetGauge("bench/micro_complexity/hosr3_vs_trustsvd_penalty")
      ->Set(hosr_us / trust_us);
  std::printf("step cost: HOSR-3 %.1f us, TrustSVD %.1f us (%.2fx)\n",
              hosr_us, trust_us, hosr_us / trust_us);
}

}  // namespace

// Like BENCHMARK_MAIN(), but routes non---benchmark_* flags (--metrics_out=,
// --trace_out=, --log_level=) to the observability layer first — google
// benchmark's Initialize rejects flags it does not recognize.
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
  PublishStepCostGauges();
  benchmark::Shutdown();
  return 0;
}
