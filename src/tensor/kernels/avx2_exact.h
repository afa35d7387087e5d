// AVX2 kernels of the avx2 KernelSet that match the reference bit for bit
// even where a multiply feeds an add: the Eq. 5 relational lanes and the
// pairwise-hinge row sums. Defined in avx2_exact.cc, which is built with
// -ffp-contract=off; kernels.h documents each kernel's contract.
#ifndef RTGCN_TENSOR_KERNELS_AVX2_EXACT_H_
#define RTGCN_TENSOR_KERNELS_AVX2_EXACT_H_

#include <cstdint>

#include "tensor/kernels/kernels.h"

namespace rtgcn::kernels::avx2_exact {

void TsForwardRows(const TimeLaneGraph& g, const float* xn, const float* as,
                   float c, int64_t row_lo, int64_t row_hi, float* corr,
                   float* yn);

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

}  // namespace rtgcn::kernels::avx2_exact

#endif  // RTGCN_TENSOR_KERNELS_AVX2_EXACT_H_
