#ifndef HOSR_DATA_SAMPLER_H_
#define HOSR_DATA_SAMPLER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "data/interactions.h"
#include "util/random.h"

namespace hosr::data {

// A mini-batch of BPR triples (i, j+, j-) from D (Eq. 12): each row pairs
// an observed interaction with a sampled unobserved item for the same user.
struct BprBatch {
  std::vector<uint32_t> users;
  std::vector<uint32_t> pos_items;
  std::vector<uint32_t> neg_items;

  size_t size() const { return users.size(); }
};

// How negative items are drawn.
enum class NegativeSampling {
  // Uniform over non-interacted items (the paper's protocol).
  kUniform,
  // Proportional to popularity^0.75 (word2vec-style): harder negatives,
  // counteracts popularity bias in the learned ranking.
  kPopularity,
};

// Uniformly samples observed interactions and rejection-samples negatives
// (items the user never interacted with).
class BprSampler {
 public:
  // `train` must outlive the sampler.
  BprSampler(const InteractionMatrix* train, uint64_t seed,
             NegativeSampling negative_sampling = NegativeSampling::kUniform);

  BprBatch SampleBatch(size_t batch_size);

  // Samples a negative item for `user` per the configured strategy.
  uint32_t SampleNegative(uint32_t user);

  // Number of (user, item) positives available.
  size_t num_positives() const { return positives_.size(); }

  NegativeSampling negative_sampling() const { return negative_sampling_; }

  // RNG state capture/restore so a resumed training run draws the exact
  // same triple sequence it would have uninterrupted.
  util::RngState rng_state() const { return rng_.GetState(); }
  void set_rng_state(const util::RngState& state) { rng_.SetState(state); }

 private:
  // Popularity^0.75-distributed item (ignoring the user constraint).
  uint32_t SamplePopularityItem();

  const InteractionMatrix* train_;
  std::vector<Interaction> positives_;
  util::Rng rng_;
  NegativeSampling negative_sampling_;
  // CDF over items for kPopularity (empty otherwise).
  std::vector<double> popularity_cdf_;
};

// Double-buffered background producer of one epoch's batches, overlapping
// BprSampler::SampleBatch with the consumer's backward/step work.
//
// Determinism contract: the producer draws exactly `num_batches` batches —
// one epoch's worth, never across the epoch boundary — in the same order
// the synchronous loop would, so the sampler's RNG state after the epoch
// (and therefore any checkpoint taken between epochs) is bit-identical to
// unprefetched training.
//
// `sampler` must outlive the prefetcher and must not be used elsewhere
// while one is alive (the producer thread owns it). The destructor stops
// the producer and joins even if not all batches were consumed.
class BatchPrefetcher {
 public:
  BatchPrefetcher(BprSampler* sampler, size_t batch_size, size_t num_batches);
  ~BatchPrefetcher();

  BatchPrefetcher(const BatchPrefetcher&) = delete;
  BatchPrefetcher& operator=(const BatchPrefetcher&) = delete;

  // The next batch of the epoch, in sampling order. Blocks until the
  // producer has it ready. At most `num_batches` calls are valid.
  BprBatch Next();

 private:
  void ProducerLoop();

  BprSampler* sampler_;
  const size_t batch_size_;
  const size_t num_batches_;
  static constexpr size_t kDepth = 2;  // batches buffered ahead
  size_t consumed_ = 0;

  std::mutex mutex_;
  std::condition_variable batch_ready_;
  std::condition_variable space_ready_;
  std::deque<BprBatch> queue_;
  bool stop_ = false;
  std::thread producer_;
};

}  // namespace hosr::data

#endif  // HOSR_DATA_SAMPLER_H_
