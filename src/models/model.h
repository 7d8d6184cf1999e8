#ifndef HOSR_MODELS_MODEL_H_
#define HOSR_MODELS_MODEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "autograd/param.h"
#include "autograd/tape.h"
#include "data/sampler.h"
#include "tensor/matrix.h"
#include "util/random.h"
#include "util/statusor.h"

namespace hosr::models {

// A model's scoring function frozen into bilinear factors for serving:
//   score(u, i) = dot(user_factors.row(u), item_factors.row(i))
//                 + user_bias[u] + item_bias[i] + global_bias.
// Bias vectors may be empty, meaning all-zero. Every dot-product model
// (HOSR, BPR, TrustSVD, IF-BPR+, DeepInf) bakes its social diffusion /
// implicit-feedback terms into `user_factors`, so a frozen export scores
// exactly like ScoreAllItems at a fraction of the cost.
struct FrozenFactors {
  tensor::Matrix user_factors;  // (n x d)
  tensor::Matrix item_factors;  // (m x d)
  std::vector<float> user_bias;  // (n) or empty
  std::vector<float> item_bias;  // (m) or empty
  float global_bias = 0.0f;
};

// Batch-shared forward state of a model's loss (docs/PERFORMANCE.md
// "Parallel training"). BuildSharedForward builds the batch-independent
// prefix — e.g. HOSR's propagated user representations — ONCE per batch on
// the borrowed `tape`, exposing the tensors slices gather from as
// `outputs`. Models whose dense weights have no row-sliceable gradient
// (NCF, NSCR) instead build their whole batch loss there and set `loss`;
// the trainer then backpropagates the shared tape and builds no slices.
struct SharedForward {
  explicit SharedForward(autograd::Tape* tape) : tape(tape) {}

  autograd::Tape* tape;
  std::vector<autograd::Value> outputs;
  // Model-specific per-batch precomputation that consumes the trainer RNG
  // (e.g. IF-BPR's sampled social items), drawn once per batch whatever
  // the slicing.
  std::vector<uint32_t> scratch_indices;
  std::optional<autograd::Value> loss;

  // Leaves for BuildLossSlice. A slice built on the shared tape itself
  // (BuildLoss's single slice) gets the dense Param leaf and the shared
  // Value; a slice on a worker's tape gets the sparse leaves the trainer's
  // ordered reduction folds.
  autograd::Value ParamLeaf(autograd::Tape* slice_tape,
                            autograd::Param* param) const {
    return slice_tape == tape ? slice_tape->Param(param)
                              : slice_tape->SparseParam(param);
  }
  autograd::Value Output(autograd::Tape* slice_tape, size_t key) const {
    return slice_tape == tape
               ? outputs[key]
               : slice_tape->SparseShared(static_cast<int>(key),
                                          &outputs[key].value());
  }
};

// Contiguous [begin, end) sub-range of a batch index column.
inline std::vector<uint32_t> SliceOf(const std::vector<uint32_t>& v,
                                     size_t begin, size_t end) {
  return std::vector<uint32_t>(v.begin() + static_cast<ptrdiff_t>(begin),
                               v.begin() + static_cast<ptrdiff_t>(end));
}

// The BPR loss slice (Eq. 12) of a dot-product model whose user
// representation is shared output 0 and whose item factors are `item_emb`:
// -1/B * sum ln sigmoid(u.v+ - u.v-), B the FULL batch size.
autograd::Value SharedUserBprSlice(autograd::Tape* tape,
                                   const SharedForward& shared,
                                   autograd::Param* item_emb,
                                   const data::BprBatch& batch, size_t begin,
                                   size_t end);

// Interface shared by HOSR and every baseline: a model that ranks items for
// users, trains on BPR triples via the autograd tape, and supports fast
// (non-differentiable) full scoring for evaluation.
class RankingModel {
 public:
  virtual ~RankingModel() = default;

  virtual std::string name() const = 0;
  virtual uint32_t num_users() const = 0;
  virtual uint32_t num_items() const = 0;

  // Builds the training loss for one mini-batch of triples on `tape` and
  // returns the scalar (1x1) loss Value: BuildSharedForward on `tape`, then
  // either the model's whole-batch shared loss or one BuildLossSlice over
  // every row. This is the one loss definition the trainer slices; the L2
  // term of Eq. 12 is the optimizer's decoupled weight decay.
  autograd::Value BuildLoss(autograd::Tape* tape, const data::BprBatch& batch,
                            util::Rng* rng);

  // Builds the batch-independent forward prefix on shared->tape plus any
  // per-batch scratch that consumes `rng`. Default: nothing shared.
  virtual void BuildSharedForward(SharedForward* shared,
                                  const data::BprBatch& batch,
                                  util::Rng* rng) {
    (void)shared;
    (void)batch;
    (void)rng;
  }

  // Builds the loss for batch rows [begin, end), taking its leaves from
  // shared.ParamLeaf / shared.Output. Over any partition of the batch into
  // contiguous slices, the trainer's ordered sink reduction must yield
  // gradients bit-identical to the single slice BuildLoss builds, for any
  // slice size and worker count: sum reductions are scaled by their
  // coefficient over the FULL batch size, as a float division, exactly as
  // Mean's backward would. Not called when the shared forward set `loss`.
  virtual autograd::Value BuildLossSlice(autograd::Tape* tape,
                                         const SharedForward& shared,
                                         const data::BprBatch& batch,
                                         size_t begin, size_t end);

  // Differentiable scores for (user, item) pairs: returns a (B x 1) Value.
  // `training` enables dropout.
  virtual autograd::Value ScorePairs(autograd::Tape* tape,
                                     const std::vector<uint32_t>& users,
                                     const std::vector<uint32_t>& items,
                                     bool training) = 0;

  // Inference-mode scores of every item for each user: (|users| x m).
  virtual tensor::Matrix ScoreAllItems(const std::vector<uint32_t>& users) = 0;

  // Exports the current parameters as frozen bilinear factors for snapshot
  // serving (serve::BuildSnapshot). Dot-product models override this;
  // models whose scorer is not bilinear (NCF, NSCR) keep the default
  // Unimplemented and cannot be served from a snapshot.
  virtual util::StatusOr<FrozenFactors> ExportFactors() const {
    return util::Status::Unimplemented(name() +
                                       " cannot export bilinear factors");
  }

  // Called by the trainer at each epoch start (e.g. HOSR re-samples its
  // graph-dropout adjacency here).
  virtual void OnEpochBegin(uint32_t epoch, util::Rng* rng) {
    (void)epoch;
    (void)rng;
  }

  virtual autograd::ParamStore* params() = 0;

 protected:
  // The BPR loss of Eq. 12 over ScorePairs: mean over triples of
  // -ln sigmoid(y+ - y-), on one tape (the NCF-family shared loss).
  autograd::Value ScorePairsBprLoss(autograd::Tape* tape,
                                    const data::BprBatch& batch);
};

}  // namespace hosr::models

#endif  // HOSR_MODELS_MODEL_H_
