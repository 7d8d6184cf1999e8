#ifndef HOSR_MODELS_NCF_H_
#define HOSR_MODELS_NCF_H_

#include <string>
#include <vector>

#include "models/model.h"

namespace hosr::models {

// Neural Collaborative Filtering (He et al., NeuMF variant): a GMF branch
// (element-wise product of user/item embeddings, linearly scored) fused
// with an MLP branch over the concatenated embeddings. The paper's neural
// non-social baseline, configured with 3 hidden layers of equal width.
class Ncf : public RankingModel {
 public:
  struct Config {
    uint32_t embedding_dim = 10;
    uint32_t num_hidden_layers = 3;  // per the paper's setup
    float init_stddev = 0.1f;
    float dropout = 0.0f;  // embedding dropout on the MLP input
    uint64_t seed = 7;
  };

  Ncf(uint32_t num_users, uint32_t num_items, const Config& config);

  std::string name() const override { return "NCF"; }
  uint32_t num_users() const override { return num_users_; }
  uint32_t num_items() const override { return num_items_; }

  autograd::Value ScorePairs(autograd::Tape* tape,
                             const std::vector<uint32_t>& users,
                             const std::vector<uint32_t>& items,
                             bool training) override;

  // BPR loss over ScorePairs, built whole on the shared tape: the MLP
  // weights' gradient has no row-sliceable fold.
  void BuildSharedForward(SharedForward* shared, const data::BprBatch& batch,
                          util::Rng* rng) override;

  tensor::Matrix ScoreAllItems(const std::vector<uint32_t>& users) override;

  autograd::ParamStore* params() override { return &params_; }

 private:
  uint32_t num_users_;
  uint32_t num_items_;
  Config config_;
  util::Rng dropout_rng_;
  autograd::ParamStore params_;
  // GMF branch.
  autograd::Param* gmf_user_;
  autograd::Param* gmf_item_;
  autograd::Param* gmf_out_;  // (d x 1)
  // MLP branch.
  autograd::Param* mlp_user_;
  autograd::Param* mlp_item_;
  std::vector<autograd::Param*> mlp_weights_;
  std::vector<autograd::Param*> mlp_biases_;
  autograd::Param* mlp_out_;  // (d x 1)
};

}  // namespace hosr::models

#endif  // HOSR_MODELS_NCF_H_
