// AVX2 kernels of the avx2 KernelSet that match the reference bit for bit
// even where a multiply feeds an add: the Eq. 5 relational lanes and their
// θ-lift, the pairwise-hinge row sums and the temporal conv block. Defined
// in avx2_exact.cc, which is built with -ffp-contract=off; kernels.h
// documents each kernel's contract.
#ifndef RTGCN_TENSOR_KERNELS_AVX2_EXACT_H_
#define RTGCN_TENSOR_KERNELS_AVX2_EXACT_H_

#include <cstdint>

#include "tensor/kernels/kernels.h"

namespace rtgcn::kernels::avx2_exact {

void TsForwardRows(const TimeLaneGraph& g, const float* xn, const float* as,
                   float c, int64_t row_lo, int64_t row_hi, float* corr,
                   float* yn);

void TsLiftReluRows(const TimeLaneGraph& g, const TimeLaneLift& lift,
                    const float* yn, int64_t row_lo, int64_t row_hi, float* h);

void TsLiftGradRows(const TimeLaneGraph& g, const TimeLaneLift& lift,
                    const float* yn, const float* h, const float* dh,
                    int64_t row_lo, int64_t row_hi, float* gn, float* dtheta);

void TsGradEntriesRows(const TimeLaneGraph& g, const float* gn,
                       const float* xn, const float* corr, int64_t row_lo,
                       int64_t row_hi, float* gx, float* ds);

void TsGradXRows(const TimeLaneGraph& g, const float* gn, const float* xn,
                 const float* corr, const float* gx, const float* as,
                 const float* s, float c, int64_t row_lo, int64_t row_hi,
                 float* dxn);

void PairwiseHingeRows(const float* s, const float* y, int64_t n,
                       int64_t row_lo, int64_t row_hi, double* row_loss,
                       double* row_grad);

void TemporalBlockForwardRows(const TemporalBlockPlan& p, const float* x,
                              int64_t lo, int64_t hi, float* y, float* z1,
                              float* z2);

void TemporalBlockBackwardRows(const TemporalBlockPlan& p, const float* x,
                               const float* y, const float* z1,
                               const float* z2, const float* g, int64_t lo,
                               int64_t hi, const TemporalBlockGrads& grads,
                               float* dx);

}  // namespace rtgcn::kernels::avx2_exact

#endif  // RTGCN_TENSOR_KERNELS_AVX2_EXACT_H_
