#include "models/model.h"

#include "util/logging.h"

namespace hosr::models {

autograd::Value SharedUserBprSlice(autograd::Tape* tape,
                                   const SharedForward& shared,
                                   autograd::Param* item_emb,
                                   const data::BprBatch& batch, size_t begin,
                                   size_t end) {
  autograd::Value u = tape->GatherRows(shared.Output(tape, 0),
                                       SliceOf(batch.users, begin, end));
  autograd::Value item_param = shared.ParamLeaf(tape, item_emb);
  autograd::Value pos = tape->RowDot(
      u, tape->GatherRows(item_param, SliceOf(batch.pos_items, begin, end)));
  autograd::Value neg = tape->RowDot(
      u, tape->GatherRows(item_param, SliceOf(batch.neg_items, begin, end)));
  autograd::Value margin = tape->Sub(pos, neg);
  const float scale = -1.0f / static_cast<float>(batch.size());
  return tape->Scale(tape->Sum(tape->LogSigmoid(margin)), scale);
}

autograd::Value RankingModel::BuildLoss(autograd::Tape* tape,
                                        const data::BprBatch& batch,
                                        util::Rng* rng) {
  SharedForward shared(tape);
  BuildSharedForward(&shared, batch, rng);
  if (shared.loss.has_value()) return *shared.loss;
  return BuildLossSlice(tape, shared, batch, 0, batch.size());
}

autograd::Value RankingModel::BuildLossSlice(autograd::Tape* tape,
                                             const SharedForward& shared,
                                             const data::BprBatch& batch,
                                             size_t begin, size_t end) {
  (void)tape;
  (void)shared;
  (void)batch;
  (void)begin;
  (void)end;
  HOSR_CHECK(false) << name() << " defines no loss slice or shared loss";
  return autograd::Value();
}

autograd::Value RankingModel::ScorePairsBprLoss(autograd::Tape* tape,
                                                const data::BprBatch& batch) {
  autograd::Value pos =
      ScorePairs(tape, batch.users, batch.pos_items, /*training=*/true);
  autograd::Value neg =
      ScorePairs(tape, batch.users, batch.neg_items, /*training=*/true);
  autograd::Value margin = tape->Sub(pos, neg);
  autograd::Value log_likelihood = tape->Mean(tape->LogSigmoid(margin));
  return tape->Scale(log_likelihood, -1.0f);
}

}  // namespace hosr::models
