#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "market/market.h"
#include "tensor/ops.h"

namespace rtgcn::market {
namespace {

TEST(UniverseTest, GeneratesRequestedSizes) {
  Rng rng(1);
  StockUniverse u = StockUniverse::Generate(50, 8, &rng);
  EXPECT_EQ(u.size(), 50);
  EXPECT_EQ(u.num_industries(), 8);
  // Every industry non-empty (first num_industries stocks seed them).
  for (int64_t k = 0; k < 8; ++k) {
    EXPECT_FALSE(u.IndustryMembers(k).empty()) << "industry " << k;
  }
}

TEST(UniverseTest, AttributesWithinSaneRanges) {
  Rng rng(2);
  StockUniverse u = StockUniverse::Generate(100, 10, &rng);
  for (const Stock& s : u.stocks()) {
    EXPECT_GT(s.beta, 0.0f);
    EXPECT_GT(s.idio_vol, 0.0f);
    EXPECT_LT(s.idio_vol, 0.1f);
    EXPECT_GT(s.market_cap, 0.0f);
    EXPECT_EQ(s.ticker.size(), 4u);
  }
}

TEST(UniverseTest, DeterministicGivenSeed) {
  Rng a(3), b(3);
  StockUniverse u1 = StockUniverse::Generate(20, 4, &a);
  StockUniverse u2 = StockUniverse::Generate(20, 4, &b);
  for (int64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(u1.stock(i).industry, u2.stock(i).industry);
    EXPECT_EQ(u1.stock(i).beta, u2.stock(i).beta);
  }
}

TEST(RelationGeneratorTest, IndustryCliquesAndWikiLinks) {
  Rng rng(4);
  StockUniverse u = StockUniverse::Generate(40, 6, &rng);
  RelationConfig cfg;
  cfg.num_wiki_types = 3;
  cfg.wiki_links_per_stock = 1.0;
  RelationData data = GenerateRelations(u, cfg, &rng);
  EXPECT_EQ(data.relations.num_relation_types(), 9);
  // Same-industry pairs are connected with the industry's type.
  const auto members = u.IndustryMembers(0);
  ASSERT_GE(members.size(), 2u);
  EXPECT_TRUE(data.relations.HasEdge(members[0], members[1]));
  // Wiki links recorded and valid.
  EXPECT_FALSE(data.wiki_links.empty());
  for (const auto& link : data.wiki_links) {
    EXPECT_NE(link.source, link.target);
    EXPECT_GE(link.type, 6);
    EXPECT_LT(link.type, 9);
    EXPECT_TRUE(data.relations.HasEdge(link.source, link.target));
  }
}

TEST(RelationGeneratorTest, SubsetViews) {
  Rng rng(5);
  StockUniverse u = StockUniverse::Generate(30, 5, &rng);
  RelationConfig cfg;
  cfg.num_wiki_types = 2;
  cfg.wiki_links_per_stock = 1.0;
  RelationData data = GenerateRelations(u, cfg, &rng);
  auto industry = data.IndustryOnly();
  auto wiki = data.WikiOnly();
  // Each view reports exactly its own (compacted) type range — no dead
  // types from the other family survive in num_relation_types().
  EXPECT_EQ(industry.num_relation_types(), 5);
  EXPECT_EQ(wiki.num_relation_types(), 2);
  for (const auto& e : industry.EdgeList()) {
    for (int32_t t : e.types) EXPECT_LT(t, 5);
  }
  // Wiki types are remapped down to [0, num_wiki_types).
  for (const auto& e : wiki.EdgeList()) {
    for (int32_t t : e.types) EXPECT_LT(t, 2);
  }
  EXPECT_GT(industry.num_edges(), wiki.num_edges());  // Table III ratios
}

// Regression: an N=1 universe used to abort the process — the self-link
// fixup `dst = (dst + 1) % n` maps back onto src, tripping AddRelation's
// self-relation check. Wiki generation must simply be skipped (there is no
// valid pair to link).
TEST(RelationGeneratorTest, SingleStockUniverseDoesNotAbort) {
  Rng rng(11);
  StockUniverse u = StockUniverse::Generate(1, 1, &rng);
  RelationConfig cfg;
  cfg.num_wiki_types = 4;
  cfg.wiki_links_per_stock = 8.0;  // forces link draws if not skipped
  RelationData data = GenerateRelations(u, cfg, &rng);
  EXPECT_EQ(data.relations.num_edges(), 0);
  EXPECT_TRUE(data.wiki_links.empty());
}

// Regression: wiki_links used to receive one entry per draw even when
// AddRelation deduped the (src, dst, type) fact, overstating the reported
// wiki-link count. Every recorded link must be a distinct fact.
TEST(RelationGeneratorTest, WikiLinksAreDeduplicated) {
  Rng rng(12);
  // Small universe + many draws per stock → collisions are guaranteed.
  StockUniverse u = StockUniverse::Generate(6, 2, &rng);
  RelationConfig cfg;
  cfg.num_wiki_types = 2;
  cfg.wiki_links_per_stock = 20.0;
  RelationData data = GenerateRelations(u, cfg, &rng);
  std::set<std::tuple<int64_t, int64_t, int32_t>> facts;
  for (const auto& link : data.wiki_links) {
    const int64_t a = std::min(link.source, link.target);
    const int64_t b = std::max(link.source, link.target);
    EXPECT_TRUE(facts.emplace(a, b, link.type).second)
        << "duplicate wiki link " << a << "-" << b << " type " << link.type;
    EXPECT_TRUE(data.relations.HasRelation(link.source, link.target,
                                           link.type));
  }
  EXPECT_EQ(static_cast<int64_t>(facts.size()),
            static_cast<int64_t>(data.wiki_links.size()));
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest() {
    Rng rng(6);
    universe_ = StockUniverse::Generate(30, 5, &rng);
    RelationConfig cfg;
    cfg.num_wiki_types = 2;
    cfg.wiki_links_per_stock = 1.0;
    relations_ = GenerateRelations(universe_, cfg, &rng);
  }

  StockUniverse universe_;
  RelationData relations_;
};

TEST_F(SimulatorTest, PricesPositiveAndShapesRight) {
  SimulatorConfig cfg;
  cfg.num_days = 200;
  SimulatedMarket sim = Simulate(universe_, relations_, cfg);
  EXPECT_EQ(sim.prices.shape(), (Shape{200, 30}));
  EXPECT_GT(MinAll(sim.prices), 0.0f);
  EXPECT_EQ(sim.index.size(), 200u);
  EXPECT_EQ(sim.index[0], 1.0);
}

TEST_F(SimulatorTest, ReturnsConsistentWithPrices) {
  SimulatorConfig cfg;
  cfg.num_days = 50;
  SimulatedMarket sim = Simulate(universe_, relations_, cfg);
  for (int64_t t = 1; t < 50; t += 7) {
    for (int64_t i = 0; i < 30; i += 5) {
      const float p0 = sim.prices.at({t - 1, i});
      const float p1 = sim.prices.at({t, i});
      EXPECT_NEAR((p1 - p0) / p0, sim.returns.at({t, i}), 1e-4);
    }
  }
}

TEST_F(SimulatorTest, ForcedCrashDepressesIndex) {
  SimulatorConfig cfg;
  cfg.num_days = 300;
  cfg.crash_day = 200;
  cfg.crash_duration = 15;
  SimulatedMarket sim = Simulate(universe_, relations_, cfg);
  for (int64_t t = 200; t < 215; ++t) {
    EXPECT_EQ(sim.regimes[t], Regime::kCrash);
  }
  EXPECT_LT(sim.index[214] / sim.index[199], 0.9);  // >10 % drawdown
  EXPECT_EQ(sim.regimes[215], Regime::kRecovery);
}

TEST_F(SimulatorTest, SameIndustryCorrelatesMoreThanCrossIndustry) {
  SimulatorConfig cfg;
  cfg.num_days = 600;
  cfg.crash_day = -1;
  // Isolate the sector factor: spillover adds cross-industry correlation
  // on wiki pairs (tested separately below).
  cfg.spillover = 0.0;
  SimulatedMarket sim = Simulate(universe_, relations_, cfg);
  auto corr = [&](int64_t a, int64_t b) {
    double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
    const int64_t n = 599;
    for (int64_t t = 1; t < 600; ++t) {
      const double ra = sim.returns.at({t, a});
      const double rb = sim.returns.at({t, b});
      sa += ra; sb += rb; saa += ra * ra; sbb += rb * rb; sab += ra * rb;
    }
    const double cov = sab / n - (sa / n) * (sb / n);
    const double va = saa / n - (sa / n) * (sa / n);
    const double vb = sbb / n - (sb / n) * (sb / n);
    return cov / std::sqrt(va * vb);
  };
  // Average same-industry vs cross-industry correlation.
  double same = 0, cross = 0;
  int same_n = 0, cross_n = 0;
  for (int64_t a = 0; a < 30; ++a) {
    for (int64_t b = a + 1; b < 30; ++b) {
      if (universe_.stock(a).industry == universe_.stock(b).industry) {
        same += corr(a, b);
        ++same_n;
      } else {
        cross += corr(a, b);
        ++cross_n;
      }
    }
  }
  ASSERT_GT(same_n, 0);
  ASSERT_GT(cross_n, 0);
  EXPECT_GT(same / same_n, cross / cross_n + 0.05);
}

TEST_F(SimulatorTest, SpilloverMakesSourceReturnPredictTarget) {
  // Correlation between r_src(t-1) and r_dst(t) should be clearly positive
  // on linked pairs; near zero for random unlinked pairs.
  SimulatorConfig cfg;
  cfg.num_days = 600;
  cfg.crash_day = -1;
  SimulatedMarket sim = Simulate(universe_, relations_, cfg);
  ASSERT_FALSE(relations_.wiki_links.empty());
  auto lag_corr = [&](int64_t src, int64_t dst) {
    double num = 0, d1 = 0, d2 = 0;
    for (int64_t t = 2; t < 600; ++t) {
      const double a = sim.returns.at({t - 1, src});
      const double b = sim.returns.at({t, dst});
      num += a * b; d1 += a * a; d2 += b * b;
    }
    return num / std::sqrt(d1 * d2);
  };
  double linked = 0;
  for (const auto& link : relations_.wiki_links) {
    linked += lag_corr(link.source, link.target);
  }
  linked /= relations_.wiki_links.size();
  const double unlinked = lag_corr(0, 17);
  EXPECT_GT(linked, 0.1);
  EXPECT_GT(linked, unlinked + 0.08);
}

TEST_F(SimulatorTest, DeterministicGivenSeed) {
  SimulatorConfig cfg;
  cfg.num_days = 100;
  SimulatedMarket a = Simulate(universe_, relations_, cfg);
  SimulatedMarket b = Simulate(universe_, relations_, cfg);
  EXPECT_TRUE(AllClose(a.prices, b.prices, 0, 0));
}

TEST_F(SimulatorTest, StatefulStepperMatchesBatchBitExactly) {
  SimulatorConfig cfg;
  cfg.num_days = 120;
  cfg.crash_day = 60;
  cfg.crash_duration = 10;
  SimulatedMarket batch = Simulate(universe_, relations_, cfg);

  MarketSimulator sim(universe_, relations_, cfg);
  for (int64_t t = 0; t < cfg.num_days; ++t) {
    if (t > 0) sim.StepDay();
    ASSERT_EQ(sim.day(), t);
    EXPECT_EQ(sim.regime(), batch.regimes[t]) << "day " << t;
    EXPECT_DOUBLE_EQ(sim.index(), batch.index[t]) << "day " << t;
    for (int64_t i = 0; i < universe_.size(); ++i) {
      ASSERT_EQ(sim.prices()[i], batch.prices.at({t, i}))
          << "day " << t << " stock " << i;
      ASSERT_EQ(sim.returns()[i], batch.returns.at({t, i}))
          << "day " << t << " stock " << i;
    }
  }
}

TEST_F(SimulatorTest, ReplayFromCapturedStateIsBitIdentical) {
  SimulatorConfig cfg;
  cfg.num_days = 200;
  MarketSimulator sim(universe_, relations_, cfg);
  for (int64_t t = 0; t < 80; ++t) sim.StepDay();
  const MarketSimulator::State st = sim.GetState();

  std::vector<std::vector<float>> expected;
  for (int64_t t = 0; t < 50; ++t) {
    sim.StepDay();
    expected.push_back(sim.prices());
  }

  // Restore into a *fresh* simulator (only seeded config shared) and into
  // the same one; both must replay the exact stream.
  MarketSimulator fresh(universe_, relations_, cfg);
  fresh.SetState(st);
  sim.SetState(st);
  for (int64_t t = 0; t < 50; ++t) {
    fresh.StepDay();
    sim.StepDay();
    ASSERT_EQ(fresh.prices(), expected[static_cast<size_t>(t)]) << "day " << t;
    ASSERT_EQ(sim.prices(), expected[static_cast<size_t>(t)]) << "day " << t;
  }
}

// Regression for the replay-desync bug: the regime chain used to share one
// RNG with every other component and skipped its draw whenever the regime
// was forced, so a mid-run regime switch shifted all subsequent market /
// sector / stock / jump draws. Now each component owns a forked stream and
// the chain consumes exactly one draw per day, forced or not — so forcing
// the regime the chain would have picked anyway is a perfect no-op.
TEST_F(SimulatorTest, NoOpRegimeForceIsBitIdentical) {
  SimulatorConfig cfg;
  cfg.num_days = 400;
  SimulatedMarket baseline = Simulate(universe_, relations_, cfg);

  // Find a stretch where the chain stayed in one regime for 11 days; bull
  // persistence (98.5 %) makes this near-certain in 400 days.
  const int64_t duration = 10;
  int64_t start = -1;
  for (int64_t t = 1; t + duration < cfg.num_days; ++t) {
    bool constant = true;
    for (int64_t k = 0; k <= duration; ++k) {
      if (baseline.regimes[t + k] != baseline.regimes[t]) {
        constant = false;
        break;
      }
    }
    if (constant) {
      start = t;
      break;
    }
  }
  ASSERT_GE(start, 0) << "no constant-regime stretch found";
  const Regime held = baseline.regimes[start];

  MarketSimulator sim(universe_, relations_, cfg);
  for (int64_t t = 1; t < start; ++t) sim.StepDay();
  // Force days [start, start + duration - 1] to `held`, exiting into `held`
  // on day start + duration — exactly what the chain did on its own.
  sim.ForceRegime(held, duration, /*exit_regime=*/held);
  for (int64_t t = start; t < cfg.num_days; ++t) {
    sim.StepDay();
    EXPECT_EQ(sim.regime(), baseline.regimes[t]) << "day " << t;
    for (int64_t i = 0; i < universe_.size(); ++i) {
      ASSERT_EQ(sim.prices()[i], baseline.prices.at({t, i}))
          << "day " << t << " stock " << i;
    }
  }
}

TEST_F(SimulatorTest, ForceRegimeTriggersCrashAndExits) {
  SimulatorConfig cfg;
  cfg.num_days = 300;
  MarketSimulator sim(universe_, relations_, cfg);
  for (int64_t t = 1; t <= 100; ++t) sim.StepDay();
  const double pre_crash_index = sim.index();
  sim.ForceRegime(Regime::kCrash, 15);
  for (int64_t t = 0; t < 15; ++t) {
    sim.StepDay();
    EXPECT_EQ(sim.regime(), Regime::kCrash);
  }
  EXPECT_LT(sim.index() / pre_crash_index, 0.9);  // >10 % drawdown
  sim.StepDay();
  EXPECT_EQ(sim.regime(), Regime::kRecovery);
}

// ---------------------------------------------------------------------------
// Dataset / features
// ---------------------------------------------------------------------------

TEST(WindowDatasetTest, FeatureNormalizationByAnchorClose) {
  // Constant price series: all features exactly 1.
  Tensor prices = Tensor::Full({40, 3}, 50.0f);
  WindowDataset ds(prices, 5, 4);
  Tensor x = ds.Features(ds.first_day());
  EXPECT_TRUE(AllClose(x, Tensor::Ones(x.shape())));
}

TEST(WindowDatasetTest, MovingAverageValues) {
  // Price ramp 1, 2, 3, ...: MA5 at t is mean of last 5.
  Tensor prices({30, 1});
  for (int64_t t = 0; t < 30; ++t) prices.data()[t] = static_cast<float>(t + 1);
  WindowDataset ds(prices, 5, 2);
  EXPECT_FLOAT_EQ(ds.MovingAverage(9, 0, 5), (6 + 7 + 8 + 9 + 10) / 5.0f);
  EXPECT_FLOAT_EQ(ds.MovingAverage(9, 0, 1), 10.0f);
  // Truncated at series start.
  EXPECT_FLOAT_EQ(ds.MovingAverage(1, 0, 5), 1.5f);
}

TEST(WindowDatasetTest, LabelIsNextDayReturnRatio) {
  Tensor prices({25, 2});
  Rng rng(7);
  for (int64_t i = 0; i < prices.numel(); ++i) {
    prices.data()[i] = 100.0f * (1.0f + 0.1f * static_cast<float>(rng.Uniform()));
  }
  WindowDataset ds(prices, 5, 1);
  const int64_t t = ds.first_day();
  Tensor y = ds.Labels(t);
  for (int64_t i = 0; i < 2; ++i) {
    const float expected =
        (prices.at({t + 1, i}) - prices.at({t, i})) / prices.at({t, i});
    EXPECT_NEAR(y.data()[i], expected, 1e-6);
  }
}

TEST(WindowDatasetTest, FirstDayAccountsForLongestMovingAverage) {
  Tensor prices = Tensor::Full({60, 1}, 10.0f);
  EXPECT_EQ(WindowDataset(prices, 15, 4).first_day(), 14 + 19);
  EXPECT_EQ(WindowDataset(prices, 15, 1).first_day(), 14);
  EXPECT_EQ(WindowDataset(prices, 5, 2).first_day(), 4 + 4);
}

TEST(WindowDatasetTest, FeatureShapeAndWindowContent) {
  Tensor prices({60, 2});
  for (int64_t i = 0; i < prices.numel(); ++i) {
    prices.data()[i] = 10.0f + static_cast<float>(i % 7);
  }
  WindowDataset ds(prices, 10, 3);
  const int64_t t = ds.first_day() + 3;
  Tensor x = ds.Features(t);
  EXPECT_EQ(x.shape(), (Shape{10, 2, 3}));
  // Feature 0 at the last window position is close(t)/close(t) = 1.
  EXPECT_NEAR(x.at({9, 0, 0}), 1.0f, 1e-6);
  EXPECT_NEAR(x.at({9, 1, 0}), 1.0f, 1e-6);
}

TEST(WindowDatasetTest, AppendDayGrowsToTheBatchDatasetAndSharesNoWrites) {
  Tensor full({40, 3});
  Rng rng(5);
  for (int64_t i = 0; i < full.numel(); ++i) {
    full.data()[i] = 50.0f * (1.0f + static_cast<float>(rng.Uniform()));
  }
  // Seed with the first 4 days in a caller-owned tensor, then append the
  // rest one row at a time: the first append moves to a private panel.
  Tensor seed({4, 3}, std::vector<float>(full.data(), full.data() + 12));
  const Tensor seed_copy = seed.Clone();
  WindowDataset grown(seed, 5, 3);
  for (int64_t t = 4; t < 40; ++t) {
    grown.AppendDay(std::vector<float>(full.data() + t * 3,
                                       full.data() + (t + 1) * 3));
  }
  EXPECT_EQ(seed.shape(), (Shape{4, 3}));
  EXPECT_TRUE(AllClose(seed, seed_copy, 0.0f, 0.0f));

  const WindowDataset batch(full, 5, 3);
  ASSERT_EQ(grown.num_days(), 40);
  for (int64_t t = batch.first_day(); t <= batch.last_day(); ++t) {
    EXPECT_TRUE(AllClose(grown.Features(t), batch.Features(t), 0.0f, 0.0f))
        << "day " << t;
    EXPECT_TRUE(AllClose(grown.Labels(t), batch.Labels(t), 0.0f, 0.0f));
  }
  const Tensor prices = grown.Prices({2, 0});
  EXPECT_EQ(prices.shape(), (Shape{40, 2}));
  EXPECT_EQ(prices.at({39, 0}), full.at({39, 2}));
  EXPECT_EQ(prices.at({39, 1}), full.at({39, 0}));
}

TEST(WindowDatasetTest, SplitChronological) {
  Tensor prices = Tensor::Full({100, 1}, 5.0f);
  WindowDataset ds(prices, 5, 1);
  DatasetSplit split = SplitByDay(ds, 60);
  ASSERT_FALSE(split.train_days.empty());
  ASSERT_FALSE(split.test_days.empty());
  EXPECT_LT(split.train_days.back(), 60);
  EXPECT_EQ(split.test_days.front(), 60);
  EXPECT_EQ(split.test_days.back(), ds.last_day());
}

TEST(MarketPresetsTest, SpecsMatchTableIIIShape) {
  auto nasdaq = NasdaqSpec();
  auto nyse = NyseSpec();
  auto csi = CsiSpec();
  EXPECT_GT(nyse.num_stocks, nasdaq.num_stocks);
  EXPECT_LT(csi.num_stocks, nasdaq.num_stocks);
  EXPECT_EQ(csi.num_wiki_types, 0);  // Table III: no wiki relations for CSI
  EXPECT_GT(nasdaq.num_wiki_types, 0);
}

TEST(MarketPresetsTest, BuildMarketEndToEnd) {
  market::MarketSpec spec = CsiSpec();
  spec.num_stocks = 20;
  spec.num_industries = 4;
  spec.train_days = 80;
  spec.test_days = 20;
  MarketData data = BuildMarket(spec);
  EXPECT_EQ(data.universe.size(), 20);
  EXPECT_EQ(data.sim.prices.dim(0), 100);
  // Wiki-free market: relation tensor has only industry types.
  EXPECT_EQ(data.relations.num_wiki_types, 0);
  EXPECT_TRUE(data.relations.wiki_links.empty());
  // Dataset round trip.
  WindowDataset ds = data.MakeDataset(10, 4);
  DatasetSplit split = SplitByDay(ds, spec.test_boundary());
  EXPECT_FALSE(split.train_days.empty());
  EXPECT_FALSE(split.test_days.empty());
}

TEST(MarketPresetsTest, RelationRatiosInPaperBallpark) {
  MarketData data = BuildMarket(NasdaqSpec());
  const double industry = data.relations.IndustryOnly().RelationRatio();
  const double wiki = data.relations.WikiOnly().RelationRatio();
  // Paper Table III: industry 5.4-6.9 %, wiki 0.3-0.4 %.
  EXPECT_GT(industry, 0.02);
  EXPECT_LT(industry, 0.15);
  EXPECT_GT(wiki, 0.0005);
  EXPECT_LT(wiki, 0.05);
  EXPECT_GT(industry, wiki);
}

}  // namespace
}  // namespace rtgcn::market
