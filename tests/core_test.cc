#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "autograd/gradcheck.h"
#include "autograd/optimizer.h"
#include "core/loss.h"
#include "core/rtgcn.h"
#include "dense_graph_oracle.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace rtgcn::core {
namespace {

graph::RelationTensor SmallRelations() {
  graph::RelationTensor rel(6, 3);
  rel.AddRelation(0, 1, 0).Abort();
  rel.AddRelation(1, 2, 0).Abort();
  rel.AddRelation(0, 2, 1).Abort();
  rel.AddRelation(3, 4, 2).Abort();
  return rel;
}

RtGcnConfig SmallConfig(Strategy s) {
  RtGcnConfig cfg;
  cfg.strategy = s;
  cfg.window = 8;
  cfg.num_features = 3;
  cfg.relational_filters = 4;
  cfg.temporal_stride = 2;
  cfg.dropout = 0.0f;
  return cfg;
}

class RtGcnTest : public ::testing::TestWithParam<Strategy> {
 protected:
  graph::RelationTensor rel_ = SmallRelations();
  Rng rng_{11};
};

TEST_P(RtGcnTest, ForwardShape) {
  RtGcnConfig cfg = SmallConfig(GetParam());
  RtGcnModel model(rel_, cfg, &rng_);
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng_);
  ag::NoGradGuard no_grad;
  auto scores = model.Forward(ag::Constant(x), &rng_);
  EXPECT_EQ(scores->shape(), (Shape{6}));
}

TEST_P(RtGcnTest, GradientsReachEveryParameter) {
  RtGcnConfig cfg = SmallConfig(GetParam());
  RtGcnModel model(rel_, cfg, &rng_);
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng_);
  Tensor y = RandomGaussian({6}, 0, 0.02f, &rng_);
  auto scores = model.Forward(ag::Constant(x), &rng_);
  ag::Backward(CombinedLoss(scores, y, 0.1f));
  for (const auto& p : model.Parameters()) {
    EXPECT_TRUE(p->grad.defined());
    EXPECT_GT(Norm(p->grad), 0.0f);
  }
}

TEST_P(RtGcnTest, EndToEndGradCheck) {
  RtGcnConfig cfg = SmallConfig(GetParam());
  cfg.window = 5;
  RtGcnModel model(rel_, cfg, &rng_);
  model.SetTraining(false);
  Tensor x = RandomUniform({5, 6, 3}, 0.9f, 1.1f, &rng_);
  Tensor y = RandomGaussian({6}, 0, 0.02f, &rng_);
  auto params = model.Parameters();
  Rng fwd_rng(3);
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>&) {
        auto scores = model.Forward(ag::Constant(x), &fwd_rng);
        return CombinedLoss(scores, y, 0.1f);
      },
      params, /*tol=*/8e-2f));
}

TEST_P(RtGcnTest, TrainingReducesLoss) {
  RtGcnConfig cfg = SmallConfig(GetParam());
  RtGcnModel model(rel_, cfg, &rng_);
  ag::Adam opt(model.Parameters(), 5e-3f);
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng_);
  Tensor y({6}, {0.02f, -0.01f, 0.03f, -0.02f, 0.0f, 0.01f});
  float first = 0, last = 0;
  for (int step = 0; step < 60; ++step) {
    opt.ZeroGrad();
    auto loss = CombinedLoss(model.Forward(ag::Constant(x), &rng_), y, 0.1f);
    if (step == 0) first = loss->value.item();
    last = loss->value.item();
    ag::Backward(loss);
    opt.Step();
  }
  EXPECT_LT(last, 0.5f * first);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, RtGcnTest,
                         ::testing::Values(Strategy::kUniform,
                                           Strategy::kWeight,
                                           Strategy::kTimeSensitive),
                         [](const auto& info) {
                           return StrategyName(info.param);
                         });

TEST(RtGcnLayerTest, TemporalCompression) {
  auto rel = SmallRelations();
  Rng rng(1);
  RtGcnConfig cfg = SmallConfig(Strategy::kUniform);
  cfg.temporal_stride = 2;
  RtGcnLayer layer(rel, cfg, 3, 4, &rng);
  EXPECT_EQ(layer.out_length(8), 2);  // ceil(ceil(8/2)/2)
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng);
  ag::NoGradGuard no_grad;
  auto h = layer.Forward(ag::Constant(x), &rng);
  EXPECT_EQ(h->shape(), (Shape{2, 6, 4}));
}

TEST(RtGcnLayerTest, UniformPropagationMatchesNormalizedAdjacency) {
  auto rel = SmallRelations();
  Rng rng(2);
  RtGcnConfig cfg = SmallConfig(Strategy::kUniform);
  RtGcnLayer layer(rel, cfg, 3, 4, &rng);
  ag::NoGradGuard no_grad;
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng);
  EXPECT_TRUE(AllClose(layer.Propagation(x), graph::NormalizedAdjacency(rel)));
}

TEST(RtGcnLayerTest, TimeSensitivePropagationVariesWithFeatures) {
  auto rel = SmallRelations();
  Rng rng(3);
  RtGcnConfig cfg = SmallConfig(Strategy::kTimeSensitive);
  RtGcnLayer layer(rel, cfg, 3, 4, &rng);
  ag::NoGradGuard no_grad;
  Tensor x1 = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng);
  Tensor x2 = RandomUniform({8, 6, 3}, 0.5f, 1.5f, &rng);
  EXPECT_FALSE(AllClose(layer.Propagation(x1), layer.Propagation(x2)));
}

TEST(RtGcnModelTest, AblationConfigsWork) {
  auto rel = SmallRelations();
  Rng rng(4);
  RtGcnConfig r_conv = SmallConfig(Strategy::kUniform);
  r_conv.use_temporal = false;
  RtGcnModel rc(rel, r_conv, &rng);
  RtGcnConfig t_conv = SmallConfig(Strategy::kUniform);
  t_conv.use_relational = false;
  RtGcnModel tc(rel, t_conv, &rng);
  ag::NoGradGuard no_grad;
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng);
  EXPECT_EQ(rc.Forward(ag::Constant(x), &rng)->shape(), (Shape{6}));
  EXPECT_EQ(tc.Forward(ag::Constant(x), &rng)->shape(), (Shape{6}));
}

TEST(RtGcnModelTest, StackedLayers) {
  auto rel = SmallRelations();
  Rng rng(5);
  RtGcnConfig cfg = SmallConfig(Strategy::kWeight);
  cfg.num_layers = 2;
  cfg.temporal_stride = 2;
  RtGcnModel model(rel, cfg, &rng);
  ag::NoGradGuard no_grad;
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng);
  EXPECT_EQ(model.Forward(ag::Constant(x), &rng)->shape(), (Shape{6}));
}

TEST(RtGcnModelTest, LastPoolingMode) {
  auto rel = SmallRelations();
  Rng rng(6);
  RtGcnConfig cfg = SmallConfig(Strategy::kUniform);
  cfg.pooling = TemporalPooling::kLast;
  RtGcnModel model(rel, cfg, &rng);
  ag::NoGradGuard no_grad;
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng);
  EXPECT_EQ(model.Forward(ag::Constant(x), &rng)->shape(), (Shape{6}));
}

// The whole model (temporal block at stride 2, pooling, scorer) on a
// universe without edges, where propagation degenerates to the identity,
// and on a single stock (the market-generator regression case).
TEST(RtGcnModelTest, DegenerateUniversesGiveFiniteScores) {
  const graph::RelationTensor empty(5, 2);
  const graph::RelationTensor one(1, 1);
  for (const graph::RelationTensor* rel : {&empty, &one}) {
    for (Strategy strat :
         {Strategy::kUniform, Strategy::kWeight, Strategy::kTimeSensitive}) {
      SCOPED_TRACE(std::string(StrategyName(strat)) + " N=" +
                   std::to_string(rel->num_stocks()));
      Rng rng(41);
      RtGcnModel model(*rel, SmallConfig(strat), &rng);
      model.SetTraining(false);
      ag::NoGradGuard no_grad;
      Tensor x = RandomUniform({8, rel->num_stocks(), 3}, 0.9f, 1.1f, &rng);
      const Tensor scores = model.Forward(ag::Constant(x), &rng)->value;
      ASSERT_EQ(scores.shape(), (Shape{rel->num_stocks()}));
      for (int64_t i = 0; i < scores.numel(); ++i) {
        EXPECT_TRUE(std::isfinite(scores.data()[i])) << "score " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Loss (Eq. 7-9)
// ---------------------------------------------------------------------------

TEST(LossTest, RegressionLossIsMse) {
  auto scores = ag::Constant(Tensor({3}, {0.1f, 0.2f, 0.3f}));
  Tensor labels({3}, {0.1f, 0.0f, 0.3f});
  EXPECT_NEAR(RegressionLoss(scores, labels)->value.item(), 0.04f / 3.0f,
              1e-6);
}

TEST(LossTest, RankingLossZeroForPerfectOrder) {
  // Scores ordered like labels: every pairwise product positive -> 0 loss.
  auto scores = ag::Constant(Tensor({3}, {3.0f, 2.0f, 1.0f}));
  Tensor labels({3}, {0.3f, 0.2f, 0.1f});
  EXPECT_NEAR(PairwiseRankingLoss(scores, labels)->value.item(), 0.0f, 1e-7);
}

TEST(LossTest, RankingLossPenalizesInversions) {
  auto good = ag::Constant(Tensor({2}, {1.0f, 0.0f}));
  auto bad = ag::Constant(Tensor({2}, {0.0f, 1.0f}));
  Tensor labels({2}, {0.1f, -0.1f});
  EXPECT_EQ(PairwiseRankingLoss(good, labels)->value.item(), 0.0f);
  EXPECT_GT(PairwiseRankingLoss(bad, labels)->value.item(), 0.0f);
}

TEST(LossTest, CombinedRespectsAlpha) {
  auto scores = ag::MakeVariable(Tensor({3}, {0.0f, 0.1f, -0.1f}), true);
  Tensor labels({3}, {0.05f, -0.05f, 0.02f});
  const float reg = RegressionLoss(scores, labels)->value.item();
  const float rank = PairwiseRankingLoss(scores, labels)->value.item();
  EXPECT_NEAR(CombinedLoss(scores, labels, 0.5f)->value.item(),
              reg + 0.5f * rank, 1e-6);
  EXPECT_NEAR(CombinedLoss(scores, labels, 0.0f)->value.item(), reg, 1e-6);
}

TEST(LossTest, GradCheckCombined) {
  Rng rng(7);
  auto scores = ag::MakeVariable(RandomGaussian({5}, 0, 0.1f, &rng), true);
  Tensor labels = RandomGaussian({5}, 0, 0.02f, &rng);
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>& in) {
        return CombinedLoss(in[0], labels, 0.3f);
      },
      {scores}));
}

}  // namespace
}  // namespace rtgcn::core
