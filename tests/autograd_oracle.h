// Autograd ops that only the tests use: the composed temporal-block oracle
// in fused_op_checker_test builds strided convs and spatial dropout from
// them, and autograd_test / edge_case_test check them. Production code
// strides and drops inside the fused nn::TemporalConvBlock op.
#ifndef RTGCN_TESTS_AUTOGRAD_ORACLE_H_
#define RTGCN_TESTS_AUTOGRAD_ORACLE_H_

#include <cstdint>

#include "autograd/variable.h"
#include "common/random.h"

namespace rtgcn::ag {

/// Keeps every `step`-th index along `axis` starting at `start`
/// (out[..., i, ...] = a[..., start + i*step, ...]).
VarPtr Downsample(const VarPtr& a, int64_t axis, int64_t step,
                  int64_t start = 0);

/// Training-time inverted dropout; identity when `training` is false or
/// `p == 0`. `spatial_axis >= 0` drops entire slices along that axis
/// (spatial dropout, §IV-C of the paper), one Bernoulli draw per slice in
/// index order, as the fused block draws its channel masks.
VarPtr Dropout(const VarPtr& a, float p, bool training, Rng* rng,
               int64_t spatial_axis = -1);

}  // namespace rtgcn::ag

#endif  // RTGCN_TESTS_AUTOGRAD_ORACLE_H_
