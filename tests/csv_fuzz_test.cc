// Seeded, fixed-iteration fuzz test of the CSV market loaders
// (market/csv_loader.h). Each iteration starts from data_corruptor_test's
// grids, a clean 10-day, 4-stock price panel and a relation list over its
// tickers, and applies 1-4 mutations: cell and day-label overwrites from a
// token list of blemishes (empty, nan, inf, non-positive, non-numeric,
// magnitudes a float cannot hold, huge integers, quotes, separators, line
// breaks), row truncation and extension, row duplication, drop and swap,
// and a byte flip of the written text. Invariants:
//  * strict loads never crash and return OK or an error;
//  * every panel either mode returns holds only finite, positive prices,
//    and unique tickers that each name their own column
//    (TickerIndex(tickers[i]) == i);
//  * tolerant LoadReports add up (days kept = rows read - days dropped,
//    each relation row in exactly one bucket), and a load without a report
//    has the same outcome as one with.
//
// Only raw std::mt19937_64 output is used (no distributions), so every run
// on every platform checks the same files.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "market/csv_loader.h"

namespace rtgcn::market {
namespace {

constexpr int kIterations = 5000;
constexpr int64_t kRelationTypes = 3;

using Grid = std::vector<std::vector<std::string>>;

class Fuzzer {
 public:
  explicit Fuzzer(uint64_t seed) : gen_(seed) {}

  uint64_t Below(uint64_t n) { return gen_() % n; }

  std::string Token() {
    static const char* kTokens[] = {
        "",     "nan",   "inf",      "-inf", "-5.0", "0",    "abc",
        "1e39", "1e-50", "0x1p-150", "1e400", "1.5", "7",    "-1",
        "99999999999999999999",     "AAA",  "EEE",  "\"q,\"", "\"",
        "a\"b", ",",     "\r",       "\n"};
    return kTokens[Below(std::size(kTokens))];
  }

  // Writes `grid` to `path` after 1-4 mutations.
  void WriteMutated(Grid grid, const std::string& path) {
    for (uint64_t round = 1 + Below(4); round > 0; --round) {
      auto& row = grid[Below(grid.size())];
      switch (Below(6)) {
        case 0:
        case 1:
          if (!row.empty()) row[Below(row.size())] = Token();
          break;
        case 2:  // truncate or extend
          row.resize(Below(row.size() + 2), Token());
          break;
        case 3: {
          const auto copy = grid[Below(grid.size())];
          grid.push_back(copy);
          break;
        }
        case 4:
          if (grid.size() > 1) grid.erase(grid.begin() + Below(grid.size()));
          break;
        default:
          std::swap(grid[Below(grid.size())], grid[Below(grid.size())]);
      }
    }
    std::string text;
    for (const auto& row : grid) {
      for (size_t i = 0; i < row.size(); ++i) text += (i ? "," : "") + row[i];
      text += '\n';
    }
    if (Below(4) == 0) {
      text[Below(text.size())] ^= static_cast<char>(1 + Below(255));
    }
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  }

 private:
  std::mt19937_64 gen_;
};

::testing::AssertionResult PricesUsable(const PricePanel& panel) {
  for (int64_t k = 0; k < panel.prices.numel(); ++k) {
    const float p = panel.prices.data()[k];
    if (!std::isfinite(p) || p <= 0) {
      return ::testing::AssertionFailure() << "price " << p << " at " << k;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult TickersNameable(const PricePanel& panel) {
  for (size_t i = 0; i < panel.tickers.size(); ++i) {
    const int64_t index = panel.TickerIndex(panel.tickers[i]);
    if (panel.tickers[i].empty() || index != static_cast<int64_t>(i)) {
      return ::testing::AssertionFailure()
             << "ticker '" << panel.tickers[i] << "' at column " << i
             << " resolves to " << index;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CsvFuzzTest, MutatedFilesLoadOrFailCleanly) {
  SetLogLevel(LogLevel::kError);  // tolerant loads warn per repair
  Grid prices{{"day", "AAA", "BBB", "CCC", "DDD"}};
  for (int t = 0; t < 10; ++t) {
    prices.push_back({std::to_string(t)});
    for (int i = 0; i < 4; ++i) {
      prices.back().push_back(std::to_string(100 + 10 * i + t) + ".5");
    }
  }
  const Grid relations{{"stock_i", "stock_j", "type"}, {"AAA", "BBB", "0"},
                       {"BBB", "CCC", "1"}, {"CCC", "DDD", "2"},
                       {"AAA", "DDD", "0"}};
  const std::string stem =
      ::testing::TempDir() + "csv_fuzz_" + std::to_string(::getpid());
  const std::string panel_path = stem + "_prices.csv";
  const std::string rel_path = stem + "_relations.csv";
  Fuzzer fuzz(0xc5f);
  int strict_ok = 0, tolerant_ok = 0;
  for (int it = 0; it < kIterations; ++it) {
    SCOPED_TRACE("iteration " + std::to_string(it));
    fuzz.WriteMutated(prices, panel_path);
    fuzz.WriteMutated(relations, rel_path);

    auto strict = LoadPricePanel(panel_path);
    if (strict.ok()) {
      ++strict_ok;
      ASSERT_TRUE(PricesUsable(strict.ValueOrDie()));
      ASSERT_TRUE(TickersNameable(strict.ValueOrDie()));
      (void)LoadRelations(rel_path, strict.ValueOrDie(), kRelationTypes);
    }

    LoadOptions options;
    options.mode = LoadOptions::Mode::kTolerant;
    options.min_coverage = 0.5;
    const bool drop_day = fuzz.Below(2) == 0;
    if (drop_day) options.cell_repair = LoadOptions::CellRepair::kDropDay;
    LoadReport r;
    auto tolerant = LoadPricePanel(panel_path, options, &r);
    ASSERT_EQ(tolerant.ok(), LoadPricePanel(panel_path, options, nullptr).ok());
    if (!tolerant.ok()) continue;
    ++tolerant_ok;
    const PricePanel& panel = tolerant.ValueOrDie();
    ASSERT_TRUE(PricesUsable(panel));
    ASSERT_TRUE(TickersNameable(panel));
    ASSERT_EQ(panel.prices.dim(0), r.days_kept);
    ASSERT_EQ(r.days_kept, r.rows_read - r.dropped_days);
    ASSERT_EQ(r.low_coverage_stocks,
              static_cast<int64_t>(r.dropped_tickers.size()));
    if (drop_day) {
      ASSERT_EQ(r.filled_cells, 0);
    } else {
      ASSERT_EQ(r.dropped_days, r.duplicate_days + r.out_of_order_days);
      ASSERT_LE(r.filled_cells, r.bad_cells);
    }

    LoadReport rr;
    auto rel = LoadRelations(rel_path, panel, kRelationTypes, options, &rr);
    ASSERT_EQ(rel.ok(), LoadRelations(rel_path, panel, kRelationTypes,
                                      options, nullptr)
                            .ok());
    if (!rel.ok()) continue;
    ASSERT_EQ(rr.relation_rows,
              rr.edges_added + rr.unknown_ticker_rows + rr.bad_type_rows +
                  rr.self_loop_rows + rr.duplicate_edges +
                  rr.malformed_relation_rows);
  }
  // The grids stay close enough to valid that both modes load files.
  EXPECT_GT(strict_ok, 0);
  EXPECT_GT(tolerant_ok, strict_ok);
  std::remove(panel_path.c_str());
  std::remove(rel_path.c_str());
}

}  // namespace
}  // namespace rtgcn::market
