#include "data/sampler.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hosr::data {

BprSampler::BprSampler(const InteractionMatrix* train, uint64_t seed,
                       NegativeSampling negative_sampling)
    : train_(train),
      positives_(train->ToList()),
      rng_(seed),
      negative_sampling_(negative_sampling) {
  HOSR_CHECK(!positives_.empty()) << "cannot sample from empty training set";
  HOSR_CHECK(train_->num_items() > 1);
  // Pre-register so the metric shows up in dumps even for runs where no
  // candidate is ever rejected.
  HOSR_COUNTER("sampler/neg_rejections").Increment(0);
  if (negative_sampling_ == NegativeSampling::kPopularity) {
    std::vector<double> weights(train_->num_items(), 0.0);
    for (const Interaction& it : positives_) weights[it.item] += 1.0;
    popularity_cdf_.resize(weights.size());
    double acc = 0.0;
    for (size_t j = 0; j < weights.size(); ++j) {
      // +1 smoothing keeps never-consumed items sampleable.
      acc += std::pow(weights[j] + 1.0, 0.75);
      popularity_cdf_[j] = acc;
    }
  }
}

uint32_t BprSampler::SamplePopularityItem() {
  const double target = rng_.UniformDouble() * popularity_cdf_.back();
  const auto it = std::upper_bound(popularity_cdf_.begin(),
                                   popularity_cdf_.end(), target);
  return static_cast<uint32_t>(
      std::min<ptrdiff_t>(it - popularity_cdf_.begin(),
                          static_cast<ptrdiff_t>(popularity_cdf_.size()) - 1));
}

uint32_t BprSampler::SampleNegative(uint32_t user) {
  const auto& items = train_->ItemsOf(user);
  // A user interacting with every item would loop forever; the datasets
  // the library targets are far sparser, but guard with a cheap check.
  HOSR_CHECK(items.size() < train_->num_items())
      << "user " << user << " interacted with every item";
  while (true) {
    const uint32_t candidate =
        negative_sampling_ == NegativeSampling::kPopularity
            ? SamplePopularityItem()
            : static_cast<uint32_t>(rng_.UniformInt(train_->num_items()));
    if (!train_->Contains(user, candidate)) return candidate;
    HOSR_COUNTER("sampler/neg_rejections").Increment();
  }
}

BprBatch BprSampler::SampleBatch(size_t batch_size) {
  HOSR_COUNTER("sampler/batches").Increment();
  HOSR_COUNTER("sampler/triples").Increment(batch_size);
  BprBatch batch;
  batch.users.reserve(batch_size);
  batch.pos_items.reserve(batch_size);
  batch.neg_items.reserve(batch_size);
  for (size_t k = 0; k < batch_size; ++k) {
    const Interaction& pos =
        positives_[rng_.UniformInt(positives_.size())];
    batch.users.push_back(pos.user);
    batch.pos_items.push_back(pos.item);
    batch.neg_items.push_back(SampleNegative(pos.user));
  }
  return batch;
}

BatchPrefetcher::BatchPrefetcher(BprSampler* sampler, size_t batch_size,
                                 size_t num_batches)
    : sampler_(sampler), batch_size_(batch_size), num_batches_(num_batches) {
  HOSR_CHECK(sampler_ != nullptr);
  if (num_batches_ > 0) {
    producer_ = std::thread([this] { ProducerLoop(); });
  }
}

BatchPrefetcher::~BatchPrefetcher() {
  if (!producer_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  space_ready_.notify_all();
  batch_ready_.notify_all();
  producer_.join();
}

void BatchPrefetcher::ProducerLoop() {
  for (size_t i = 0; i < num_batches_; ++i) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      space_ready_.wait(lock,
                        [this] { return stop_ || queue_.size() < kDepth; });
      if (stop_) return;
    }
    // Sample outside the lock: the whole point is overlapping this work
    // with the consumer. Only this thread touches the sampler, and only
    // the consumer pops, so the space observed above cannot vanish.
    BprBatch batch = sampler_->SampleBatch(batch_size_);
    HOSR_COUNTER("sampler/prefetched_batches").Increment();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) return;
      queue_.push_back(std::move(batch));
    }
    batch_ready_.notify_one();
  }
}

BprBatch BatchPrefetcher::Next() {
  HOSR_CHECK(consumed_ < num_batches_)
      << "epoch exhausted after " << num_batches_ << " batches";
  ++consumed_;
  std::unique_lock<std::mutex> lock(mutex_);
  if (queue_.empty()) {
    // Stall: the consumer outran the producer. Record the time blocked, not
    // just the event, so the training timeline can show stall *time*
    // (trainer/prefetch_stall_ratio) rather than a bare count.
    HOSR_COUNTER("sampler/prefetch_stalls").Increment();
    const int64_t wait_begin_ns = obs::NowNanos();
    batch_ready_.wait(lock, [this] { return !queue_.empty(); });
    HOSR_HISTOGRAM("sampler/prefetch_stall_us")
        .Observe(static_cast<double>(obs::NowNanos() - wait_begin_ns) /
                 1000.0);
  }
  BprBatch batch = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  space_ready_.notify_one();
  return batch;
}

}  // namespace hosr::data
