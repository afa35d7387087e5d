// Flush-to-zero regression test. Adam with coupled L2 decay drives some
// RT-GCN weights towards zero for as long as training runs; under IEEE
// gradual underflow they end up below FLT_MIN, and every multiply that
// reads or produces such a subnormal then takes a microcode assist on x86,
// which made the N = 840 train step ~2x slower after ~2000 steps. With
// flush-to-zero set for the process (src/tensor/tensor.cc) no computed
// value can be subnormal, so a long run leaves none in the model's
// parameters, their gradients or the optimizer's moments.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/loss.h"
#include "core/rtgcn.h"
#include "market/market.h"

namespace rtgcn {
namespace {

int64_t CountSubnormals(const Tensor& t) {
  if (!t.defined()) return 0;
  int64_t count = 0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (std::fpclassify(t.data()[i]) == FP_SUBNORMAL) ++count;
  }
  return count;
}

// The train step of perfbench/train.cc and GradientPredictor::TrainStep
// (forward, combined loss, backward, clip at 5, Adam with lr 1e-3 and
// weight decay 1e-4) on the default NASDAQ-shaped market, N = 120, for
// 2000 steps at one thread. Under IEEE gradual underflow this run ends
// with 197 subnormal weights (5 in theta, 192 in the three conv filters),
// 1 subnormal gradient entry and 243 subnormal Adam moment entries.
TEST(SubnormalTest, LongAdamTrainingLeavesNoSubnormalState) {
#if !defined(__SSE__)
  GTEST_SKIP() << "flush-to-zero is set on x86 only";
#endif
  constexpr int kSteps = 2000;
  SetNumThreads(1);
  market::MarketSpec spec = market::NasdaqSpec(1.0);
  spec.seed = 21;
  const market::MarketData data = market::BuildMarket(spec);
  const core::RtGcnConfig config;
  const market::WindowDataset dataset =
      data.MakeDataset(config.window, config.num_features);
  std::vector<int64_t> order =
      market::SplitByDay(dataset, spec.test_boundary()).train_days;
  ASSERT_FALSE(order.empty());

  Rng init(22);
  core::RtGcnModel model(data.relations.relations, config, &init);
  model.SetTraining(true);
  ag::Adam adam(model.Parameters(), 1e-3f, 0.9f, 0.999f, 1e-8f,
                /*weight_decay=*/1e-4f);
  Rng rng(23);
  size_t cursor = order.size();
  for (int step = 0; step < kSteps; ++step) {
    if (cursor == order.size()) {
      rng.Shuffle(&order);
      cursor = 0;
    }
    const int64_t day = order[cursor++];
    adam.ZeroGrad();
    ag::VarPtr loss = core::CombinedLoss(
        model.Forward(ag::Constant(dataset.Features(day)), &rng),
        dataset.Labels(day), 0.1f);
    ASSERT_TRUE(std::isfinite(loss->value.item())) << "step " << step;
    ag::Backward(loss);
    adam.ClipGradNorm(5.0f);
    adam.Step();
  }
  SetNumThreads(0);

  for (const auto& [name, p] : model.NamedParameters()) {
    EXPECT_EQ(CountSubnormals(p->value), 0) << name << " value";
    EXPECT_EQ(CountSubnormals(p->grad), 0) << name << " grad";
  }
  const ag::OptimizerState state = adam.State();
  EXPECT_EQ(state.step, kSteps);
  for (size_t i = 0; i < state.slots.size(); ++i) {
    EXPECT_EQ(CountSubnormals(state.slots[i]), 0) << "Adam moment slot " << i;
  }
}

}  // namespace
}  // namespace rtgcn
