#ifndef HOSR_MODELS_NSCR_H_
#define HOSR_MODELS_NSCR_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "graph/csr.h"
#include "models/model.h"

namespace hosr::models {

// NSCR (Wang et al., "Item Silk Road"), adapted to implicit feedback as in
// the paper's experiments: a deep network scores user-item interactions,
// and two *social regularization* terms shape the user embeddings —
//  * smoothness: connected users should have close embeddings
//    (sampled-neighbor L2 penalty), and
//  * fitting: a user's embedding should stay close to her neighborhood
//    mean (computed with a row-normalized social operator).
// Representative of the regularization-based family the paper contrasts
// with explicit factoring (first-order social only).
class Nscr : public RankingModel {
 public:
  struct Config {
    uint32_t embedding_dim = 10;
    uint32_t num_hidden_layers = 3;
    float init_stddev = 0.1f;
    float dropout = 0.0f;
    float smoothness_weight = 0.1f;
    float fitting_weight = 0.1f;
    uint64_t seed = 7;
  };

  Nscr(const data::Dataset& train, const Config& config);

  std::string name() const override { return "NSCR"; }
  uint32_t num_users() const override { return num_users_; }
  uint32_t num_items() const override { return num_items_; }

  autograd::Value ScorePairs(autograd::Tape* tape,
                             const std::vector<uint32_t>& users,
                             const std::vector<uint32_t>& items,
                             bool training) override;

  // BPR loss plus the two social constraint terms, built whole on the
  // shared tape (the MLP weights' gradient has no row-sliceable fold);
  // the smoothness term's friend draws consume `rng` there.
  void BuildSharedForward(SharedForward* shared, const data::BprBatch& batch,
                          util::Rng* rng) override;

  tensor::Matrix ScoreAllItems(const std::vector<uint32_t>& users) override;

  autograd::ParamStore* params() override { return &params_; }

 private:
  uint32_t num_users_;
  uint32_t num_items_;
  Config config_;
  util::Rng dropout_rng_;
  // Neighbor lists for smoothness sampling.
  graph::SocialGraph social_;
  // Row-normalized social operator (mean over neighbors) + transpose.
  graph::CsrMatrix neighborhood_mean_;
  graph::CsrMatrix neighborhood_mean_t_;
  autograd::ParamStore params_;
  autograd::Param* user_emb_;
  autograd::Param* item_emb_;
  std::vector<autograd::Param*> mlp_weights_;
  std::vector<autograd::Param*> mlp_biases_;
  autograd::Param* out_weight_;
};

}  // namespace hosr::models

#endif  // HOSR_MODELS_NSCR_H_
