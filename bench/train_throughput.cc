// Training throughput of the deterministic training engine
// (docs/PERFORMANCE.md "Parallel training"): trains BPR-MF on a YelpLike
// synthetic dataset under four trainer configurations —
//
//   seq        1 worker, dense optimizer steps
//   par2/par   2/4 workers, sparse optimizer steps (the shipped fast path)
//   par_dense  4 workers, dense optimizer steps (isolates the step change)
//
// — and publishes samples/sec per configuration plus two ratios:
// `speedup` (par vs seq, the headline >=2x acceptance gate) and
// `sparse_step_speedup` (sparse vs dense steps at the same worker count).
// Before measuring, it byte-compares the training state of a short 1-worker
// run against a 4-worker run, so the throughput numbers are only ever reported
// for configurations proven to produce bit-identical trajectories.
//
// Run via run_benches.sh (picked up like every bench) or directly:
//   ./build/bench/train_throughput --metrics_out=bench_metrics/tt.json
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "data/synthetic.h"
#include "models/bpr_mf.h"
#include "models/trainer.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "util/flags.h"
#include "util/logging.h"

namespace {

using namespace hosr;

struct BenchResult {
  double samples_per_sec = 0.0;
};

models::TrainConfig MakeConfig(uint32_t epochs) {
  models::TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 512;
  config.learning_rate = 0.005f;
  config.weight_decay = 1e-4f;
  config.optimizer = "rmsprop";
  config.seed = 11;
  return config;
}

models::BprMf MakeModel(const data::Dataset& dataset, uint32_t dim) {
  models::BprMf::Config config;
  config.embedding_dim = dim;
  return models::BprMf(dataset.num_users(), dataset.num_items(), config);
}

// Trains a fresh model: one warmup epoch, then `timed_epochs` measured
// ones. Returns sampled triples per wall-clock second over the timed span.
BenchResult Measure(const data::Dataset& dataset, uint32_t dim,
                    models::TrainConfig config, uint32_t timed_epochs) {
  config.epochs = 1 + timed_epochs;
  models::BprMf model = MakeModel(dataset, dim);
  models::BprTrainer trainer(&model, &dataset.interactions, config);
  (void)trainer.RunEpoch();  // warmup: page in tables, spawn threads once
  double seconds = 0.0;
  double samples = 0.0;
  while (trainer.epoch() < config.epochs) {
    const models::EpochStats stats = trainer.RunEpoch();
    seconds += stats.seconds;
    samples += static_cast<double>(stats.samples);
  }
  BenchResult result;
  result.samples_per_sec = seconds > 0.0 ? samples / seconds : 0.0;
  return result;
}

std::string ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Byte-compares training states of a short 1-worker run vs a 4-worker run;
// aborts the bench if they diverge (the perf numbers would then be
// comparing different algorithms, not different worker counts).
void CheckBitIdentity(const data::Dataset& dataset, uint32_t dim) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hosr_train_bench").string();
  std::filesystem::create_directories(dir);
  std::string bytes[2];
  for (int i = 0; i < 2; ++i) {
    models::TrainConfig config = MakeConfig(/*epochs=*/1);
    config.train_threads = i == 0 ? 1 : 4;
    models::BprMf model = MakeModel(dataset, dim);
    models::BprTrainer trainer(&model, &dataset.interactions, config);
    trainer.Train();
    const std::string path = dir + "/state_" + std::to_string(i);
    HOSR_CHECK(trainer.SaveTrainingState(path).ok());
    bytes[i] = ReadRaw(path);
    std::remove(path.c_str());
  }
  HOSR_CHECK(!bytes[0].empty() && bytes[0] == bytes[1])
      << "4-worker training diverged from 1 worker; refusing to bench";
  std::printf("bit-identity check: 1-worker == 4-worker training state (%zu "
              "bytes)\n", bytes[0].size());
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags = util::Flags::Parse(argc, argv);
  obs::InitFromFlags(flags);

  const double scale = flags.GetDouble("bench_scale", 0.6);
  const uint32_t dim =
      static_cast<uint32_t>(flags.GetInt("bench_dim", 64));
  const uint32_t timed_epochs =
      static_cast<uint32_t>(flags.GetInt("bench_epochs", 2));

  auto generated =
      data::GenerateSynthetic(data::SyntheticConfig::YelpLike(scale));
  HOSR_CHECK(generated.ok());
  const data::Dataset dataset = std::move(generated).value();
  std::printf("dataset: %u users, %u items, %zu interactions, dim %u\n",
              dataset.num_users(), dataset.num_items(),
              dataset.interactions.nnz(), dim);

  CheckBitIdentity(dataset, dim);

  models::TrainConfig config = MakeConfig(1);
  const BenchResult seq = Measure(dataset, dim, config, timed_epochs);

  config.train_threads = 2;
  config.sparse_steps = true;
  const BenchResult par2 = Measure(dataset, dim, config, timed_epochs);

  config.train_threads = 4;
  const BenchResult par4 = Measure(dataset, dim, config, timed_epochs);

  config.sparse_steps = false;
  const BenchResult par4_dense = Measure(dataset, dim, config, timed_epochs);

  const double speedup =
      seq.samples_per_sec > 0.0 ? par4.samples_per_sec / seq.samples_per_sec
                                : 0.0;
  const double sparse_step_speedup =
      par4_dense.samples_per_sec > 0.0
          ? par4.samples_per_sec / par4_dense.samples_per_sec
          : 0.0;

  auto& registry = obs::Registry::Global();
  registry.GetGauge("bench/train_throughput/seq_samples_per_sec")
      ->Set(seq.samples_per_sec);
  registry.GetGauge("bench/train_throughput/par2_samples_per_sec")
      ->Set(par2.samples_per_sec);
  registry.GetGauge("bench/train_throughput/par_samples_per_sec")
      ->Set(par4.samples_per_sec);
  registry.GetGauge("bench/train_throughput/par_dense_samples_per_sec")
      ->Set(par4_dense.samples_per_sec);
  registry.GetGauge("bench/train_throughput/speedup")->Set(speedup);
  registry.GetGauge("bench/train_throughput/sparse_step_speedup")
      ->Set(sparse_step_speedup);

  std::printf(
      "seq (1 thread, dense):    %10.0f samples/s\n"
      "par (2 workers, sparse):  %10.0f samples/s\n"
      "par (4 workers, sparse):  %10.0f samples/s\n"
      "par (4 workers, dense):   %10.0f samples/s\n"
      "speedup (par4/seq):       %.2fx\n"
      "sparse step win (4w):     %.2fx\n",
      seq.samples_per_sec, par2.samples_per_sec, par4.samples_per_sec,
      par4_dense.samples_per_sec, speedup, sparse_step_speedup);
  return 0;
}
