#include "models/deepinf.h"

#include "graph/sampling.h"
#include "graph/spmm.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace hosr::models {

namespace {

// Fixed-size RWR sample per user, assembled into a row-normalized sparse
// operator with self-loops: row u averages {u} union sample(u).
graph::CsrMatrix BuildSampledOperator(const graph::SocialGraph& social,
                                      uint32_t sample_size,
                                      double return_prob, uint64_t seed) {
  std::vector<graph::Triplet> triplets;
  util::Rng rng(seed);
  for (uint32_t u = 0; u < social.num_users(); ++u) {
    util::Rng walk_rng = rng.Fork(u + 1);
    const auto sample = graph::RandomWalkWithRestart(
        social, u, return_prob, sample_size, &walk_rng);
    const float w = 1.0f / static_cast<float>(sample.size() + 1);
    triplets.push_back({u, u, w});
    for (const uint32_t v : sample) triplets.push_back({u, v, w});
  }
  return graph::CsrMatrix::FromTriplets(social.num_users(),
                                        social.num_users(),
                                        std::move(triplets));
}

}  // namespace

DeepInf::DeepInf(const data::Dataset& train, const Config& config)
    : num_users_(train.num_users()),
      num_items_(train.num_items()),
      config_(config),
      dropout_rng_(config.seed ^ 0xe7037ed1a0b428dbULL),
      sampled_adjacency_(BuildSampledOperator(train.social,
                                              config.sample_size,
                                              config.return_prob,
                                              config.seed ^ 0x2545f4914f6cdd1dULL)),
      sampled_adjacency_t_(sampled_adjacency_.Transpose()) {
  HOSR_CHECK(config.num_layers >= 1);
  util::Rng rng(config.seed);
  const uint32_t d = config.embedding_dim;
  user_emb_ = params_.CreateGaussian("user_emb", num_users_, d,
                                     config.init_stddev, &rng);
  item_emb_ = params_.CreateGaussian("item_emb", num_items_, d,
                                     config.init_stddev, &rng);
  for (uint32_t layer = 0; layer < config.num_layers; ++layer) {
    layer_weights_.push_back(params_.CreateXavier(
        util::StrFormat("deepinf_w%u", layer), d, d, &rng));
  }
}

autograd::Value DeepInf::PropagateUsers(autograd::Tape* tape, bool training) {
  autograd::Value h = tape->Param(user_emb_);
  for (size_t layer = 0; layer < layer_weights_.size(); ++layer) {
    h = tape->SpMM(&sampled_adjacency_, &sampled_adjacency_t_, h);
    h = tape->MatMul(h, tape->Param(layer_weights_[layer]));
    h = tape->Relu(h);
    h = tape->Dropout(h, config_.dropout, training, &dropout_rng_);
  }
  return h;
}

tensor::Matrix DeepInf::PropagateUsersInference() const {
  tensor::Matrix h = user_emb_->value;
  for (const autograd::Param* w : layer_weights_) {
    h = graph::Spmm(sampled_adjacency_, h);
    h = tensor::MatMul(h, w->value);
    tensor::Apply(&h, [](float x) { return x > 0.0f ? x : 0.0f; });
  }
  return h;
}

autograd::Value DeepInf::ScorePairs(autograd::Tape* tape,
                                    const std::vector<uint32_t>& users,
                                    const std::vector<uint32_t>& items,
                                    bool training) {
  autograd::Value h = PropagateUsers(tape, training);
  autograd::Value u = tape->GatherRows(h, users);
  autograd::Value v = tape->GatherRows(tape->Param(item_emb_), items);
  return tape->RowDot(u, v);
}

void DeepInf::BuildSharedForward(SharedForward* shared,
                                 const data::BprBatch& batch,
                                 util::Rng* rng) {
  (void)batch;
  (void)rng;
  shared->outputs.push_back(PropagateUsers(shared->tape, /*training=*/true));
}

autograd::Value DeepInf::BuildLossSlice(autograd::Tape* tape,
                                        const SharedForward& shared,
                                        const data::BprBatch& batch,
                                        size_t begin, size_t end) {
  return SharedUserBprSlice(tape, shared, item_emb_, batch, begin, end);
}

tensor::Matrix DeepInf::ScoreAllItems(const std::vector<uint32_t>& users) {
  const tensor::Matrix h = PropagateUsersInference();
  const tensor::Matrix u = tensor::GatherRows(h, users);
  tensor::Matrix scores(users.size(), num_items_);
  tensor::Gemm(u, false, item_emb_->value, true, 1.0f, 0.0f, &scores);
  return scores;
}

util::StatusOr<FrozenFactors> DeepInf::ExportFactors() const {
  FrozenFactors factors;
  factors.user_factors = PropagateUsersInference();
  factors.item_factors = item_emb_->value;
  return factors;
}

}  // namespace hosr::models
