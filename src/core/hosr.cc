#include "core/hosr.h"

#include <cmath>
#include <utility>

#include "graph/laplacian.h"
#include "graph/sampling.h"
#include "graph/spmm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace hosr::core {

using autograd::Value;
using tensor::Matrix;

namespace {

// Item-implicit operator of Eq. 11: entry (i, j') for j' in I_i, with the
// configured decay factor.
graph::CsrMatrix BuildItemTermOperator(
    const data::InteractionMatrix& interactions, ImplicitDecay decay) {
  // |A_j|: number of users that interacted with item j (for kSqrtBoth).
  std::vector<uint32_t> item_degree(interactions.num_items(), 0);
  if (decay == ImplicitDecay::kSqrtBoth) {
    for (uint32_t u = 0; u < interactions.num_users(); ++u) {
      for (const uint32_t j : interactions.ItemsOf(u)) ++item_degree[j];
    }
  }
  std::vector<graph::Triplet> triplets;
  triplets.reserve(interactions.nnz());
  for (uint32_t u = 0; u < interactions.num_users(); ++u) {
    const auto& items = interactions.ItemsOf(u);
    if (items.empty()) continue;
    const float user_decay =
        1.0f / std::sqrt(static_cast<float>(items.size()));
    for (const uint32_t j : items) {
      float w = user_decay;
      if (decay == ImplicitDecay::kSqrtBoth) {
        w /= std::sqrt(static_cast<float>(std::max<uint32_t>(1, item_degree[j])));
      }
      triplets.push_back({u, j, w});
    }
  }
  return graph::CsrMatrix::FromTriplets(interactions.num_users(),
                                        interactions.num_items(),
                                        std::move(triplets));
}

}  // namespace

util::Status Hosr::Config::Validate() const {
  if (embedding_dim == 0) {
    return util::Status::InvalidArgument("embedding_dim must be > 0");
  }
  if (num_layers == 0) {
    return util::Status::InvalidArgument("num_layers must be > 0");
  }
  if (embedding_dropout < 0.0f || embedding_dropout >= 1.0f) {
    return util::Status::InvalidArgument("embedding_dropout must be in [0,1)");
  }
  if (graph_dropout < 0.0f || graph_dropout >= 1.0f) {
    return util::Status::InvalidArgument("graph_dropout must be in [0,1)");
  }
  return util::Status::Ok();
}

Hosr::Hosr(const data::Dataset& train, const Config& config)
    : num_users_(train.num_users()),
      num_items_(train.num_items()),
      config_(config),
      social_(train.social),
      dropout_rng_(config.seed ^ 0x9e6c63d0876a9a47ULL) {
  HOSR_CHECK(config.Validate().ok()) << config.Validate().ToString();
  RebuildActiveLaplacian(social_);
  base_laplacian_ = active_laplacian_;
  item_term_ = BuildItemTermOperator(train.interactions,
                                     config_.implicit_decay);
  item_term_t_ = item_term_.Transpose();

  util::Rng rng(config.seed);
  const uint32_t d = config.embedding_dim;
  user_emb_ = params_.CreateGaussian("user_emb", num_users_, d,
                                     config.init_stddev, &rng);
  item_emb_ = params_.CreateGaussian("item_emb", num_items_, d,
                                     config.init_stddev, &rng);
  if (config.use_layer_weights) {
    for (uint32_t layer = 0; layer < config.num_layers; ++layer) {
      layer_weights_.push_back(params_.CreateXavier(
          util::StrFormat("gcn_w%u", layer + 1), d, d, &rng));
    }
  }
  if (config.aggregation == LayerAggregation::kAttention) {
    attn_proj_user_ = params_.CreateXavier("attn_p_u", d, d, &rng);
    attn_proj_output_ = params_.CreateXavier("attn_p_o", d, d, &rng);
    attn_vector_ = params_.CreateXavier("attn_h", d, 1, &rng);
  } else {
    attn_proj_user_ = attn_proj_output_ = attn_vector_ = nullptr;
  }
}

void Hosr::RebuildActiveLaplacian(const graph::SocialGraph& graph) {
  active_laplacian_ = config_.self_connections
                          ? graph::NormalizedLaplacian(graph.adjacency())
                          : graph::NormalizedAdjacency(graph.adjacency());
}

void Hosr::OnEpochBegin(uint32_t epoch, util::Rng* rng) {
  (void)epoch;
  if (config_.graph_dropout <= 0.0f) return;
  const graph::SocialGraph thinned =
      graph::GraphDropout(social_, config_.graph_dropout, rng);
  RebuildActiveLaplacian(thinned);
}

std::vector<Value> Hosr::PropagateLayers(autograd::Tape* tape,
                                         bool training) {
  const graph::CsrMatrix* laplacian =
      training ? &active_laplacian_ : &base_laplacian_;
  std::vector<Value> layers;
  layers.reserve(config_.num_layers);
  Value h = tape->Param(user_emb_);
  for (uint32_t layer = 0; layer < config_.num_layers; ++layer) {
    obs::ScopedSpan span(obs::IndexedSpanName("hosr/layer_", layer + 1));
    // Eq. 5: U^(k) = act(L U^(k-1) W^(k)); L is symmetric.
    h = tape->SpMM(laplacian, laplacian, h);
    if (config_.use_layer_weights) {
      h = tape->MatMul(h, tape->Param(layer_weights_[layer]));
    }
    if (config_.use_activation) {
      h = config_.activation == Activation::kTanh ? tape->Tanh(h)
                                                  : tape->Relu(h);
    }
    // Embedding dropout (p1) on each layer's output.
    h = tape->Dropout(h, config_.embedding_dropout, training, &dropout_rng_);
    layers.push_back(h);
  }
  return layers;
}

Value Hosr::AggregateLayers(autograd::Tape* tape, Value u0,
                            const std::vector<Value>& layers) {
  switch (config_.aggregation) {
    case LayerAggregation::kLast:
      return layers.back();
    case LayerAggregation::kAverage: {
      Value acc = layers[0];
      for (size_t l = 1; l < layers.size(); ++l) {
        acc = tape->Add(acc, layers[l]);
      }
      return tape->Scale(acc, 1.0f / static_cast<float>(layers.size()));
    }
    case LayerAggregation::kAttention: {
      if (layers.size() == 1) return layers[0];
      HOSR_TRACE_SPAN("hosr/attention_aggregate");
      // Eq. 8: a_il = ReLU(u_i P_u + u_i^(l) P_o) h^T.
      Value projected_u0 = tape->MatMul(u0, tape->Param(attn_proj_user_));
      Value p_o = tape->Param(attn_proj_output_);
      Value h_vec = tape->Param(attn_vector_);
      Value scores;  // (n x k), built by concatenation
      for (size_t l = 0; l < layers.size(); ++l) {
        Value hidden =
            tape->Relu(tape->Add(projected_u0, tape->MatMul(layers[l], p_o)));
        Value a_l = tape->MatMul(hidden, h_vec);  // (n x 1)
        scores = l == 0 ? a_l : tape->ConcatCols(scores, a_l);
      }
      // Eq. 9: softmax over layers; Eq. 10: weighted sum.
      Value weights = tape->RowSoftmax(scores);
      Value aggregated;
      for (size_t l = 0; l < layers.size(); ++l) {
        Value s_l = tape->SliceCols(weights, l, 1);
        Value weighted = tape->BroadcastColMul(layers[l], s_l);
        aggregated = l == 0 ? weighted : tape->Add(aggregated, weighted);
      }
      return aggregated;
    }
  }
  HOSR_CHECK(false) << "unreachable aggregation";
  return layers.back();
}

Value Hosr::UserRepresentation(autograd::Tape* tape, bool training) {
  Value u0 = tape->Param(user_emb_);
  std::vector<Value> layers = PropagateLayers(tape, training);
  Value aggregated = AggregateLayers(tape, u0, layers);
  if (config_.item_implicit_term) {
    // Eq. 11: add 1/sqrt(|I_i|) * sum of interacted item embeddings.
    Value implicit =
        tape->SpMM(&item_term_, &item_term_t_, tape->Param(item_emb_));
    aggregated = tape->Add(aggregated, implicit);
  }
  return aggregated;
}

Value Hosr::ScorePairs(autograd::Tape* tape,
                       const std::vector<uint32_t>& users,
                       const std::vector<uint32_t>& items, bool training) {
  Value rep = UserRepresentation(tape, training);
  Value u = tape->GatherRows(rep, users);
  Value v = tape->GatherRows(tape->Param(item_emb_), items);
  return tape->RowDot(u, v);
}

void Hosr::BuildSharedForward(models::SharedForward* shared,
                              const data::BprBatch& batch, util::Rng* rng) {
  (void)batch;
  (void)rng;
  shared->outputs.push_back(
      UserRepresentation(shared->tape, /*training=*/true));
}

Value Hosr::BuildLossSlice(autograd::Tape* tape,
                           const models::SharedForward& shared,
                           const data::BprBatch& batch, size_t begin,
                           size_t end) {
  return models::SharedUserBprSlice(tape, shared, item_emb_, batch, begin,
                                    end);
}

std::vector<Matrix> Hosr::PropagateLayersInference() const {
  std::vector<Matrix> layers;
  layers.reserve(config_.num_layers);
  Matrix h = user_emb_->value;
  for (uint32_t layer = 0; layer < config_.num_layers; ++layer) {
    obs::ScopedSpan span(obs::IndexedSpanName("hosr/layer_", layer + 1));
    h = graph::Spmm(base_laplacian_, h);
    if (config_.use_layer_weights) {
      h = tensor::MatMul(h, layer_weights_[layer]->value);
    }
    if (config_.use_activation) {
      config_.activation == Activation::kTanh ? tensor::Tanh(h, &h)
                                              : tensor::Relu(h, &h);
    }
    layers.push_back(h);
  }
  return layers;
}

Matrix Hosr::AggregateLayersInference(
    const std::vector<Matrix>& layers) const {
  switch (config_.aggregation) {
    case LayerAggregation::kLast:
      return layers.back();
    case LayerAggregation::kAverage: {
      Matrix acc = layers[0];
      for (size_t l = 1; l < layers.size(); ++l) {
        tensor::Axpy(1.0f, layers[l], &acc);
      }
      tensor::Scale(acc, 1.0f / static_cast<float>(layers.size()), &acc);
      return acc;
    }
    case LayerAggregation::kAttention: {
      if (layers.size() == 1) return layers[0];
      const Matrix weights = AttentionWeightsFor(layers);
      Matrix acc(num_users_, config_.embedding_dim);
      for (size_t l = 0; l < layers.size(); ++l) {
        const Matrix& layer = layers[l];
        for (size_t r = 0; r < acc.rows(); ++r) {
          const float w = weights(r, l);
          float* ar = acc.row(r);
          const float* lr = layer.row(r);
          for (size_t c = 0; c < acc.cols(); ++c) ar[c] += w * lr[c];
        }
      }
      return acc;
    }
  }
  HOSR_CHECK(false) << "unreachable aggregation";
  return layers.back();
}

Matrix Hosr::AttentionWeightsFor(const std::vector<Matrix>& layers) const {
  HOSR_CHECK(config_.aggregation == LayerAggregation::kAttention);
  const Matrix projected_u0 =
      tensor::MatMul(user_emb_->value, attn_proj_user_->value);
  Matrix scores(num_users_, layers.size());
  for (size_t l = 0; l < layers.size(); ++l) {
    Matrix hidden = tensor::MatMul(layers[l], attn_proj_output_->value);
    tensor::Axpy(1.0f, projected_u0, &hidden);
    tensor::Relu(hidden, &hidden);
    const Matrix a_l = tensor::MatMul(hidden, attn_vector_->value);
    for (size_t r = 0; r < scores.rows(); ++r) scores(r, l) = a_l(r, 0);
  }
  Matrix weights = std::move(scores);
  tensor::RowSoftmax(weights, &weights);
  if (obs::Enabled()) {
    // Distribution of post-softmax layer weights (Eq. 9): how much each
    // user leans on each propagation depth.
    auto& histogram = HOSR_HISTOGRAM("hosr/attn_softmax_weight");
    for (size_t r = 0; r < weights.rows(); ++r) {
      for (size_t c = 0; c < weights.cols(); ++c) {
        histogram.Observe(weights(r, c));
      }
    }
  }
  return weights;
}

Matrix Hosr::AttentionWeights() const {
  return AttentionWeightsFor(PropagateLayersInference());
}

Matrix Hosr::FinalUserEmbeddings() const {
  return AggregateLayersInference(PropagateLayersInference());
}

Matrix Hosr::ScoreAllItems(const std::vector<uint32_t>& users) {
  HOSR_TRACE_SPAN("hosr/score_all_items");
  Matrix rep = FinalUserEmbeddings();
  if (config_.item_implicit_term) {
    const Matrix implicit = graph::Spmm(item_term_, item_emb_->value);
    tensor::Axpy(1.0f, implicit, &rep);
  }
  const Matrix u = tensor::GatherRows(rep, users);
  Matrix scores(users.size(), num_items_);
  tensor::Gemm(u, false, item_emb_->value, true, 1.0f, 0.0f, &scores);
  return scores;
}

util::StatusOr<models::FrozenFactors> Hosr::ExportFactors() const {
  models::FrozenFactors factors;
  // Same composition as ScoreAllItems: aggregated propagation output plus
  // the Eq. 11 item-implicit term, on the full (dropout-free) graph.
  Matrix rep = FinalUserEmbeddings();
  if (config_.item_implicit_term) {
    const Matrix implicit = graph::Spmm(item_term_, item_emb_->value);
    tensor::Axpy(1.0f, implicit, &rep);
  }
  factors.user_factors = std::move(rep);
  factors.item_factors = item_emb_->value;
  return factors;
}

}  // namespace hosr::core
