#ifndef HOSR_MODELS_TRAINER_H_
#define HOSR_MODELS_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/interactions.h"
#include "models/model.h"
#include "optim/optimizer.h"
#include "util/statusor.h"

namespace hosr::models {

// Upper bound on TrainConfig::train_threads (and on the hardware count
// train_threads == 0 resolves to).
inline constexpr uint32_t kMaxTrainThreads = 256;

// Hyper-parameters of the paper's training protocol (Sec. 3.1).
struct TrainConfig {
  uint32_t epochs = 30;
  uint32_t batch_size = 512;           // fixed to 512 in the paper
  float learning_rate = 0.001f;        // tuned in {1e-4..5e-3}
  float weight_decay = 0.001f;         // the L2 coefficient lambda
  std::string optimizer = "rmsprop";   // the paper's optimizer
  data::NegativeSampling negative_sampling =
      data::NegativeSampling::kUniform;  // the paper's protocol
  uint64_t seed = 1;
  bool verbose = false;                // log per-epoch loss

  // --- Training engine (docs/PERFORMANCE.md) --------------------------
  // Worker threads for intra-batch data parallelism, at most
  // kMaxTrainThreads; 0 = hardware concurrency. The training trajectory is
  // bit-identical across every value — trainer_parallel_test locks this
  // in — so the checkpoint format deliberately leaves it out: checkpoints
  // move freely between thread counts.
  uint32_t train_threads = 1;
  // Batch rows per worker slice. Any value >= 1 yields the same
  // trajectory; smaller slices balance better, larger amortize per-slice
  // tape overhead.
  uint32_t slice_size = 128;
  // Row-sparse optimizer updates: state and weight decay applied only to
  // embedding rows the batch touched (lazy decay — untouched rows skip a
  // step's decay entirely). CHANGES the trajectory relative to dense
  // steps, so it is part of the checkpoint config identity.
  bool sparse_steps = false;

  util::Status Validate() const;
};

// Progress record for one epoch.
struct EpochStats {
  uint32_t epoch = 0;
  double avg_loss = 0.0;
  double seconds = 0.0;
  size_t batches = 0;
  // BPR triples actually sampled this epoch (sum of batch sizes).
  size_t samples = 0;
  // Sampled BPR triples consumed per wall-clock second (0 if unmeasurable).
  double samples_per_sec = 0.0;
};

// Generic mini-batch trainer: samples BPR triples from the training matrix
// (on a background prefetch thread), trains each batch through the engine
// — the model's shared forward, its loss slices across the workers, an
// ordered reduction, the shared backward — and steps the optimizer. Works
// unchanged for HOSR and all six baselines.
class BprTrainer {
 public:
  // `model` and `train` must outlive the trainer.
  BprTrainer(RankingModel* model, const data::InteractionMatrix* train,
             const TrainConfig& config);

  // Runs the remaining epochs (epoch() .. config.epochs); returns their
  // stats. On a fresh trainer that is all `config.epochs` epochs; after
  // RestoreTrainingState it continues where the checkpoint left off.
  std::vector<EpochStats> Train();

  // Runs a single epoch (one pass worth of sampled batches); exposed so
  // benches can interleave training with evaluation snapshots.
  EpochStats RunEpoch();

  const TrainConfig& config() const { return config_; }

  // Next epoch to run (== number of completed epochs).
  uint32_t epoch() const { return epoch_; }

  // Crash-safe training checkpoint: model parameters, optimizer state,
  // both RNG streams (trainer + sampler), and the epoch counter, written
  // atomically with a CRC-32 footer. A run restored from epoch E produces
  // bit-identical parameters to one that trained straight through — the
  // resume contract robustness_test locks in.
  //
  // RestoreTrainingState refuses checkpoints from a different model,
  // optimizer, or training config (FailedPrecondition) and corrupted files
  // (DataLoss, via the whole-file CRC gate); rejected checkpoints leave
  // the trainer untouched.
  util::Status SaveTrainingState(const std::string& path) const;
  util::Status RestoreTrainingState(const std::string& path);

 private:
  RankingModel* model_;
  const data::InteractionMatrix* train_;
  TrainConfig config_;
  data::BprSampler sampler_;
  std::unique_ptr<optim::Optimizer> optimizer_;
  util::Rng rng_;
  uint32_t epoch_ = 0;
};

}  // namespace hosr::models

#endif  // HOSR_MODELS_TRAINER_H_
