// Combined regression + pairwise ranking loss (paper Eq. 7–9).
#ifndef RTGCN_CORE_LOSS_H_
#define RTGCN_CORE_LOSS_H_

#include "autograd/ops.h"

namespace rtgcn::core {

/// τ_reg: mean squared error between predicted scores and return ratios.
ag::VarPtr RegressionLoss(const ag::VarPtr& scores, const Tensor& labels);

/// τ_rank: pairwise hinge  Σ_ij ReLU(-(ŷ_i - ŷ_j)(y_i - y_j)), averaged over
/// the N² pairs so the α balance is independent of universe size. It is the
/// fused op ag::PairwiseRankingLoss (O(N²) compute, O(N) memory), declared
/// here rather than wrapped so unqualified calls resolve to one function.
using ag::PairwiseRankingLoss;

/// τ = τ_reg + α τ_rank (Eq. 9). The λ‖β‖² term is applied as optimizer
/// weight decay (equivalent gradient; see DESIGN.md).
ag::VarPtr CombinedLoss(const ag::VarPtr& scores, const Tensor& labels,
                        float alpha);

}  // namespace rtgcn::core

#endif  // RTGCN_CORE_LOSS_H_
