// Portfolio-backtest example: trains RT-GCN (T) and a relation-blind
// Rank_LSTM on the same simulated market, then replays the test period as a
// daily top-k buy-sell portfolio, printing the running cumulative return of
// both against the market index — the paper's trading protocol (§V-B1) as a
// downstream user would run it.
//
//   ./portfolio_backtest [--topk 5] [--epochs 8] [--market NASDAQ]
#include <cstdio>

#include "baselines/catalog.h"
#include "common/flags.h"
#include "harness/evaluator.h"
#include "market/market.h"
#include "rank/backtest.h"
#include "rank/metrics.h"

int main(int argc, char** argv) {
  using namespace rtgcn;
  int64_t topk = 5;
  int64_t epochs = 8;
  std::string market_name = "NASDAQ";
  FlagSet fs("Train RT-GCN (T) and Rank_LSTM on one simulated market and "
             "replay the test period as a daily top-k portfolio.");
  fs.Register("topk", &topk, "portfolio size: buy the k best-ranked stocks");
  fs.Register("epochs", &epochs, "training epochs per model");
  fs.RegisterChoice("market", &market_name, {"NASDAQ", "NYSE", "CSI"},
                    "which simulated market preset to run");
  fs.ParseOrDie(argc, argv);

  market::MarketSpec spec = market_name == "NYSE"  ? market::NyseSpec()
                            : market_name == "CSI" ? market::CsiSpec()
                                                   : market::NasdaqSpec();
  market::MarketData data = market::BuildMarket(spec);
  market::WindowDataset dataset = data.MakeDataset(15, 4);
  market::DatasetSplit split = SplitByDay(dataset, spec.test_boundary());

  harness::TrainOptions opts;
  opts.epochs = epochs;

  baselines::ModelConfig mc;
  auto rtgcn_model = baselines::CreateModel("RT-GCN (T)",
                                            data.relations.relations, data, mc);
  auto lstm_model = baselines::CreateModel("Rank_LSTM",
                                           data.relations.relations, data, mc);
  std::printf("training RT-GCN (T) (%lld epochs)...\n", (long long)opts.epochs);
  rtgcn_model->Fit(dataset, split.train_days, opts);
  std::printf("training Rank_LSTM...\n");
  lstm_model->Fit(dataset, split.train_days, opts);

  // Daily replay.
  double acc_rtgcn = 0, acc_lstm = 0, acc_index = 0;
  std::printf("\n%5s  %10s  %10s  %10s   top-%lld picks (RT-GCN)\n", "day",
              "RT-GCN", "Rank_LSTM", "index", (long long)topk);
  for (size_t d = 0; d < split.test_days.size(); ++d) {
    const int64_t day = split.test_days[d];
    Tensor labels = dataset.Labels(day);
    Tensor s1 = rtgcn_model->Predict(dataset, day);
    Tensor s2 = lstm_model->Predict(dataset, day);
    acc_rtgcn += rank::TopKReturn(s1, labels, topk);
    acc_lstm += rank::TopKReturn(s2, labels, topk);
    acc_index += data.sim.index[day + 1] / data.sim.index[day] - 1.0;
    if (d % 10 == 0 || d + 1 == split.test_days.size()) {
      std::printf("%5zu  %+9.2f%%  %+9.2f%%  %+9.2f%%   ", d,
                  100 * acc_rtgcn, 100 * acc_lstm, 100 * acc_index);
      for (int64_t i : rank::TopK(s1, topk)) {
        std::printf("%s ", data.universe.stock(i).ticker.c_str());
      }
      std::printf("\n");
    }
  }
  std::printf("\nFinal cumulative return over %zu test days: RT-GCN (T) "
              "%+.1f%%, Rank_LSTM %+.1f%%, market index %+.1f%%.\n",
              split.test_days.size(), 100 * acc_rtgcn, 100 * acc_lstm,
              100 * acc_index);
  return 0;
}
