#include "core/hosr_joint.h"

#include <cmath>

#include "graph/laplacian.h"
#include "graph/spmm.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace hosr::core {

using autograd::Value;
using tensor::Matrix;

util::Status HosrJoint::Config::Validate() const {
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

HosrJoint::HosrJoint(const data::Dataset& train, const Config& config)
    : num_users_(train.num_users()),
      num_items_(train.num_items()),
      config_(config),
      dropout_rng_(config.seed ^ 0x853c49e6748fea9bULL),
      social_edges_(train.social.EdgeList()),
      interaction_edges_(train.interactions.ToList()) {
  HOSR_CHECK(config.Validate().ok()) << config.Validate().ToString();
  base_laplacian_ = BuildJointLaplacian(social_edges_, interaction_edges_);
  active_laplacian_ = base_laplacian_;

  util::Rng rng(config.seed);
  const uint32_t d = config.embedding_dim;
  node_emb_ = params_.CreateGaussian("node_emb", num_users_ + num_items_, d,
                                     config.init_stddev, &rng);
  for (uint32_t layer = 0; layer < config.num_layers; ++layer) {
    layer_weights_.push_back(params_.CreateXavier(
        util::StrFormat("joint_w%u", layer + 1), d, d, &rng));
  }
  if (config.aggregation == LayerAggregation::kAttention) {
    attn_proj_node_ = params_.CreateXavier("joint_attn_p_u", d, d, &rng);
    attn_proj_output_ = params_.CreateXavier("joint_attn_p_o", d, d, &rng);
    attn_vector_ = params_.CreateXavier("joint_attn_h", d, 1, &rng);
  } else {
    attn_proj_node_ = attn_proj_output_ = attn_vector_ = nullptr;
  }
}

graph::CsrMatrix HosrJoint::BuildJointLaplacian(
    const std::vector<std::pair<uint32_t, uint32_t>>& social_edges,
    const std::vector<data::Interaction>& interactions) const {
  const uint32_t n = num_users_ + num_items_;
  std::vector<graph::Triplet> triplets;
  triplets.reserve(social_edges.size() * 2 + interactions.size() * 2);
  for (const auto& [a, b] : social_edges) {
    triplets.push_back({a, b, 1.0f});
    triplets.push_back({b, a, 1.0f});
  }
  for (const auto& edge : interactions) {
    const uint32_t item_node = num_users_ + edge.item;
    triplets.push_back({edge.user, item_node, 1.0f});
    triplets.push_back({item_node, edge.user, 1.0f});
  }
  const graph::CsrMatrix adjacency =
      graph::CsrMatrix::FromTriplets(n, n, std::move(triplets));
  return graph::NormalizedLaplacian(adjacency);
}

void HosrJoint::OnEpochBegin(uint32_t epoch, util::Rng* rng) {
  (void)epoch;
  if (config_.graph_dropout <= 0.0f) return;
  std::vector<std::pair<uint32_t, uint32_t>> kept_social;
  for (const auto& edge : social_edges_) {
    if (!rng->Bernoulli(config_.graph_dropout)) kept_social.push_back(edge);
  }
  std::vector<data::Interaction> kept_interactions;
  for (const auto& edge : interaction_edges_) {
    if (!rng->Bernoulli(config_.graph_dropout)) {
      kept_interactions.push_back(edge);
    }
  }
  active_laplacian_ = BuildJointLaplacian(kept_social, kept_interactions);
}

Value HosrJoint::PropagateAndAggregate(autograd::Tape* tape, bool training) {
  const graph::CsrMatrix* laplacian =
      training ? &active_laplacian_ : &base_laplacian_;
  Value e0 = tape->Param(node_emb_);
  std::vector<Value> layers;
  layers.reserve(config_.num_layers);
  Value h = e0;
  for (uint32_t layer = 0; layer < config_.num_layers; ++layer) {
    h = tape->SpMM(laplacian, laplacian, h);
    h = tape->MatMul(h, tape->Param(layer_weights_[layer]));
    h = config_.activation == Activation::kTanh ? tape->Tanh(h)
                                                : tape->Relu(h);
    h = tape->Dropout(h, config_.embedding_dropout, training, &dropout_rng_);
    layers.push_back(h);
  }

  switch (config_.aggregation) {
    case LayerAggregation::kLast:
      return layers.back();
    case LayerAggregation::kAverage: {
      Value acc = layers[0];
      for (size_t l = 1; l < layers.size(); ++l) acc = tape->Add(acc, layers[l]);
      return tape->Scale(acc, 1.0f / static_cast<float>(layers.size()));
    }
    case LayerAggregation::kAttention: {
      if (layers.size() == 1) return layers[0];
      Value projected = tape->MatMul(e0, tape->Param(attn_proj_node_));
      Value p_o = tape->Param(attn_proj_output_);
      Value h_vec = tape->Param(attn_vector_);
      Value scores;
      for (size_t l = 0; l < layers.size(); ++l) {
        Value hidden =
            tape->Relu(tape->Add(projected, tape->MatMul(layers[l], p_o)));
        Value a_l = tape->MatMul(hidden, h_vec);
        scores = l == 0 ? a_l : tape->ConcatCols(scores, a_l);
      }
      Value weights = tape->RowSoftmax(scores);
      Value aggregated;
      for (size_t l = 0; l < layers.size(); ++l) {
        Value weighted =
            tape->BroadcastColMul(layers[l], tape->SliceCols(weights, l, 1));
        aggregated = l == 0 ? weighted : tape->Add(aggregated, weighted);
      }
      return aggregated;
    }
  }
  HOSR_CHECK(false) << "unreachable aggregation";
  return layers.back();
}

Value HosrJoint::ScorePairs(autograd::Tape* tape,
                            const std::vector<uint32_t>& users,
                            const std::vector<uint32_t>& items,
                            bool training) {
  Value nodes = PropagateAndAggregate(tape, training);
  std::vector<uint32_t> item_nodes(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    HOSR_CHECK(items[i] < num_items_);
    item_nodes[i] = num_users_ + items[i];
  }
  Value u = tape->GatherRows(nodes, users);
  Value v = tape->GatherRows(nodes, item_nodes);
  return tape->RowDot(u, v);
}

void HosrJoint::BuildSharedForward(models::SharedForward* shared,
                                   const data::BprBatch& batch,
                                   util::Rng* rng) {
  (void)batch;
  (void)rng;
  shared->outputs.push_back(
      PropagateAndAggregate(shared->tape, /*training=*/true));
}

Value HosrJoint::BuildLossSlice(autograd::Tape* tape,
                                const models::SharedForward& shared,
                                const data::BprBatch& batch, size_t begin,
                                size_t end) {
  // One shared node-representation leaf carries the user, positive-item,
  // and negative-item gathers (three op segments on one sink).
  std::vector<uint32_t> pos_nodes(end - begin);
  std::vector<uint32_t> neg_nodes(end - begin);
  for (size_t i = begin; i < end; ++i) {
    pos_nodes[i - begin] = num_users_ + batch.pos_items[i];
    neg_nodes[i - begin] = num_users_ + batch.neg_items[i];
  }
  Value nodes = shared.Output(tape, 0);
  Value u = tape->GatherRows(nodes, models::SliceOf(batch.users, begin, end));
  Value pos = tape->RowDot(u, tape->GatherRows(nodes, std::move(pos_nodes)));
  Value neg = tape->RowDot(u, tape->GatherRows(nodes, std::move(neg_nodes)));
  const float scale = -1.0f / static_cast<float>(batch.size());
  return tape->Scale(tape->Sum(tape->LogSigmoid(tape->Sub(pos, neg))), scale);
}

Matrix HosrJoint::FinalNodeEmbeddings() const {
  Matrix h = node_emb_->value;
  std::vector<Matrix> layers;
  layers.reserve(config_.num_layers);
  for (uint32_t layer = 0; layer < config_.num_layers; ++layer) {
    h = graph::Spmm(base_laplacian_, h);
    h = tensor::MatMul(h, layer_weights_[layer]->value);
    config_.activation == Activation::kTanh ? tensor::Tanh(h, &h)
                                            : tensor::Relu(h, &h);
    layers.push_back(h);
  }
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
      const Matrix projected =
          tensor::MatMul(node_emb_->value, attn_proj_node_->value);
      Matrix scores(node_emb_->value.rows(), layers.size());
      for (size_t l = 0; l < layers.size(); ++l) {
        Matrix hidden = tensor::MatMul(layers[l], attn_proj_output_->value);
        tensor::Axpy(1.0f, projected, &hidden);
        tensor::Relu(hidden, &hidden);
        const Matrix a_l = tensor::MatMul(hidden, attn_vector_->value);
        for (size_t r = 0; r < scores.rows(); ++r) scores(r, l) = a_l(r, 0);
      }
      tensor::RowSoftmax(scores, &scores);
      const Matrix& weights = scores;
      Matrix acc(node_emb_->value.rows(), config_.embedding_dim);
      for (size_t l = 0; l < layers.size(); ++l) {
        for (size_t r = 0; r < acc.rows(); ++r) {
          const float w = weights(r, l);
          float* ar = acc.row(r);
          const float* lr = layers[l].row(r);
          for (size_t c = 0; c < acc.cols(); ++c) ar[c] += w * lr[c];
        }
      }
      return acc;
    }
  }
  HOSR_CHECK(false) << "unreachable aggregation";
  return layers.back();
}

Matrix HosrJoint::ScoreAllItems(const std::vector<uint32_t>& users) {
  const Matrix nodes = FinalNodeEmbeddings();
  const Matrix u = tensor::GatherRows(nodes, users);
  // Item rows occupy [num_users_, num_users_ + num_items_).
  Matrix items(num_items_, config_.embedding_dim);
  for (uint32_t j = 0; j < num_items_; ++j) {
    const float* src = nodes.row(num_users_ + j);
    std::copy(src, src + config_.embedding_dim, items.row(j));
  }
  Matrix scores(users.size(), num_items_);
  tensor::Gemm(u, false, items, true, 1.0f, 0.0f, &scores);
  return scores;
}

}  // namespace hosr::core
