#include "core/loss.h"

namespace rtgcn::core {

using ag::VarPtr;

ag::VarPtr RegressionLoss(const VarPtr& scores, const Tensor& labels) {
  RTGCN_CHECK(scores->shape() == labels.shape());
  VarPtr diff = ag::Sub(scores, ag::Constant(labels));
  return ag::MeanAll(ag::Square(diff));
}

ag::VarPtr CombinedLoss(const VarPtr& scores, const Tensor& labels,
                        float alpha) {
  VarPtr loss = RegressionLoss(scores, labels);
  if (alpha > 0) {
    loss = ag::Add(loss,
                   ag::MulScalar(PairwiseRankingLoss(scores, labels), alpha));
  }
  return loss;
}

}  // namespace rtgcn::core
