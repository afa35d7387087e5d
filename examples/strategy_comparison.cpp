// Compares the three RT-GCN relation-aware strategies (Uniform, Weight,
// Time-sensitive) on one simulated market — a miniature of Table IV's
// "Ours" block.
//
//   ./strategy_comparison [--market NASDAQ|NYSE|CSI] [--epochs 8]
#include <cstdio>

#include "baselines/catalog.h"
#include "common/flags.h"
#include "common/strings.h"
#include "harness/table.h"
#include "market/market.h"

int main(int argc, char** argv) {
  using namespace rtgcn;
  std::string market_name = "NASDAQ";
  int64_t epochs = 8;
  FlagSet fs("Compare the three RT-GCN relation-aware strategies (Uniform, "
             "Weight, Time-sensitive) on one simulated market.");
  fs.RegisterChoice("market", &market_name, {"NASDAQ", "NYSE", "CSI"},
                    "which simulated market preset to run");
  fs.Register("epochs", &epochs, "training epochs per strategy");
  fs.ParseOrDie(argc, argv);

  market::MarketSpec spec = market_name == "NYSE"  ? market::NyseSpec()
                            : market_name == "CSI" ? market::CsiSpec()
                                                   : market::NasdaqSpec();
  spec.train_days = 300;
  spec.test_days = 80;
  market::MarketData data = market::BuildMarket(spec);

  harness::TablePrinter table({"Strategy", "MRR", "IRR-1", "IRR-5", "IRR-10",
                               "train s/epoch"});
  for (const std::string model :
       {"RT-GCN (U)", "RT-GCN (W)", "RT-GCN (T)"}) {
    baselines::ExperimentConfig config;
    config.model = model;
    config.train.epochs = epochs;
    baselines::ExperimentResult r = baselines::RunExperiment(data, config);
    table.AddRow({r.model, FormatFixed(r.eval.backtest.mrr, 3),
                  FormatFixed(r.eval.backtest.irr.at(1), 2),
                  FormatFixed(r.eval.backtest.irr.at(5), 2),
                  FormatFixed(r.eval.backtest.irr.at(10), 2),
                  FormatFixed(r.fit.seconds_per_epoch(), 2)});
    std::printf("finished %s\n", r.model.c_str());
  }
  std::printf("\n%s (simulated), %lld stocks\n", spec.name.c_str(),
              (long long)spec.num_stocks);
  table.Print();
  return 0;
}
