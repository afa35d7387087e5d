// Market-simulation example: builds the three preset markets, prints their
// structural statistics (mirroring the paper's Tables II/III), and writes
// the NASDAQ-sim price panel + index to CSV for inspection.
//
//   ./market_simulation [--out nasdaq_prices.csv]
#include <cstdio>

#include "common/csv.h"
#include "common/flags.h"
#include "common/strings.h"
#include "harness/table.h"
#include "market/market.h"

int main(int argc, char** argv) {
  using namespace rtgcn;
  std::string out = "nasdaq_prices.csv";
  FlagSet fs("Print structural statistics for the three preset markets and "
             "dump the NASDAQ-sim price panel to CSV.");
  fs.Register("out", &out, "output CSV path for the NASDAQ-sim panel");
  fs.ParseOrDie(argc, argv);

  harness::TablePrinter table({"Market", "Stocks", "Industries", "Wiki types",
                               "Industry ratio", "Wiki ratio", "Days",
                               "Index return"});
  for (const market::MarketSpec& spec :
       {market::NasdaqSpec(), market::NyseSpec(), market::CsiSpec()}) {
    market::MarketData data = market::BuildMarket(spec);
    const double total_return =
        data.sim.index.back() / data.sim.index.front() - 1.0;
    table.AddRow({spec.name, std::to_string(spec.num_stocks),
                  std::to_string(spec.num_industries),
                  std::to_string(spec.num_wiki_types),
                  FormatFixed(100.0 * data.relations.IndustryOnly().RelationRatio(), 1) + "%",
                  FormatFixed(100.0 * data.relations.WikiOnly().RelationRatio(), 2) + "%",
                  std::to_string(spec.num_days()),
                  FormatFixed(100.0 * total_return, 1) + "%"});
  }
  std::printf("Simulated market presets (paper Tables II/III analogue):\n");
  table.Print();

  // Dump the NASDAQ panel: date, index, then one column per stock.
  market::MarketData nasdaq = market::BuildMarket(market::NasdaqSpec());
  CsvTable csv;
  csv.header = {"day", "index"};
  for (const auto& s : nasdaq.universe.stocks()) csv.header.push_back(s.ticker);
  const int64_t days = nasdaq.sim.prices.dim(0);
  const int64_t n = nasdaq.sim.prices.dim(1);
  for (int64_t t = 0; t < days; ++t) {
    std::vector<std::string> row = {std::to_string(t),
                                    FormatFixed(nasdaq.sim.index[t], 4)};
    for (int64_t i = 0; i < n; ++i) {
      row.push_back(FormatFixed(nasdaq.sim.prices.at({t, i}), 2));
    }
    csv.rows.push_back(std::move(row));
  }
  WriteCsv(out, csv).Abort();
  std::printf("\nNASDAQ-sim price panel written to %s (%lld days x %lld "
              "stocks).\n", out.c_str(), (long long)days, (long long)n);

  // Show the regime path around the crash.
  std::printf("\nRegimes around the test boundary (day %lld):\n",
              (long long)nasdaq.spec.test_boundary());
  const char* names[] = {"bull", "bear", "CRASH", "recovery"};
  for (int64_t t = nasdaq.spec.test_boundary() - 3;
       t < nasdaq.spec.test_boundary() + 25 && t < days; ++t) {
    std::printf("  day %lld: %-8s index %.3f\n", (long long)t,
                names[static_cast<int>(nasdaq.sim.regimes[t])],
                nasdaq.sim.index[t]);
  }
  return 0;
}
