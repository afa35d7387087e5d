// Fault-injection harness for the CSV ingestion layer: a "corruptor"
// plants specific defects into a clean price panel / relation list, then
// asserts that strict mode rejects each with a precise row/column error and
// tolerant mode recovers with exact LoadReport accounting.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "market/csv_loader.h"
#include "tensor/ops.h"

namespace rtgcn::market {
namespace {

using Cell = std::pair<int, int>;  // (data row, column) into the grid

// A clean 10-day, 4-stock panel as a mutable grid of cells. Row 0 is the
// header; data rows use integer day labels and strictly positive prices.
class PanelCorruptor {
 public:
  PanelCorruptor() {
    grid_.push_back({"day", "AAA", "BBB", "CCC", "DDD"});
    for (int t = 0; t < 10; ++t) {
      std::vector<std::string> row{std::to_string(t)};
      for (int i = 0; i < 4; ++i) {
        row.push_back(std::to_string(100 + 10 * i + t) + ".5");
      }
      grid_.push_back(row);
    }
  }

  /// Overwrites one price cell (row = data-row index, col = stock index).
  PanelCorruptor& SetCell(int row, int col, const std::string& value) {
    grid_[row + 1][col + 1] = value;
    return *this;
  }
  /// Renames one stock's header column (col = stock index).
  PanelCorruptor& SetTicker(int col, const std::string& name) {
    grid_[0][col + 1] = name;
    return *this;
  }
  /// Overwrites a day label.
  PanelCorruptor& SetDay(int row, const std::string& value) {
    grid_[row + 1][0] = value;
    return *this;
  }
  /// Truncates a data row to `width` fields (day column included).
  PanelCorruptor& Truncate(int row, int width) {
    grid_[row + 1].resize(width);
    return *this;
  }

  std::string Write(const std::string& name) const {
    const std::string path = "/tmp/" + name;
    std::ofstream out(path);
    for (const auto& row : grid_) {
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) out << ',';
        out << row[i];
      }
      out << '\n';
    }
    return path;
  }

 private:
  std::vector<std::vector<std::string>> grid_;
};

LoadOptions Tolerant(double min_coverage = 0.0) {
  LoadOptions options;
  options.mode = LoadOptions::Mode::kTolerant;
  options.min_coverage = min_coverage;
  return options;
}

// ---------------------------------------------------------------------------
// Strict mode: every planted defect is rejected with a precise location.
// ---------------------------------------------------------------------------

TEST(CorruptorStrictTest, NanPriceCellRejected) {
  // Regression: the old loader checked `value <= 0`, which NaN fails, so a
  // literal "nan" cell silently became a NaN price.
  const std::string path =
      PanelCorruptor().SetCell(3, 1, "nan").Write("corrupt_nan.csv");
  auto result = LoadPricePanel(path);
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("row 3"), std::string::npos) << message;
  EXPECT_NE(message.find("BBB"), std::string::npos) << message;
  EXPECT_NE(message.find("non-finite"), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(CorruptorStrictTest, EachDefectRejectedWithPreciseError) {
  struct Defect {
    std::string cell;
    std::string expect;  // substring the error must contain
  };
  const std::vector<Defect> defects = {
      {"", "missing"},        {"abc", "non-numeric"},
      {"inf", "non-finite"},  {"-inf", "non-finite"},
      {"-5.0", "non-positive"}, {"0", "non-positive"},
      // A cell is judged as the float the panel stores (csv_fuzz_test
      // found 1e39 loading as inf and 1e-50 as 0).
      {"1e39", "non-finite"}, {"1e-50", "non-positive"},
  };
  for (const auto& defect : defects) {
    const std::string path = PanelCorruptor()
                                 .SetCell(5, 2, defect.cell)
                                 .Write("corrupt_cell.csv");
    auto result = LoadPricePanel(path);
    ASSERT_FALSE(result.ok()) << "cell '" << defect.cell << "' accepted";
    const std::string message = result.status().ToString();
    EXPECT_NE(message.find("row 5"), std::string::npos) << message;
    EXPECT_NE(message.find("CCC"), std::string::npos) << message;
    EXPECT_NE(message.find(defect.expect), std::string::npos) << message;
    std::remove(path.c_str());
  }
}

// Regression: `day,AAA,BBB,AAA,DDD` loaded as a 4-stock panel whose third
// column no relation row could name. A repeated or empty ticker fails the
// load in both modes, naming the ticker and its columns (the day is
// column 0).
TEST(CorruptorStrictTest, RepeatedOrEmptyTickerRejectedInBothModes) {
  struct Defect {
    int col;
    std::string name;
    std::string expect;
  };
  const std::vector<Defect> defects = {
      {2, "AAA", "ticker 'AAA' repeats in columns 1 and 3"},
      {3, "CCC", "ticker 'CCC' repeats in columns 3 and 4"},
      {1, "", "empty ticker name in column 2"},
  };
  for (const auto& defect : defects) {
    const std::string path = PanelCorruptor()
                                 .SetTicker(defect.col, defect.name)
                                 .Write("corrupt_header.csv");
    for (const bool tolerant : {false, true}) {
      LoadReport report;
      auto result = tolerant ? LoadPricePanel(path, Tolerant(), &report)
                             : LoadPricePanel(path);
      ASSERT_FALSE(result.ok()) << "ticker '" << defect.name << "' accepted"
                                << (tolerant ? " (tolerant)" : "");
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      const std::string message = result.status().ToString();
      EXPECT_NE(message.find(defect.expect), std::string::npos) << message;
    }
    std::remove(path.c_str());
  }
}

TEST(CorruptorStrictTest, DuplicateAndOutOfOrderDaysRejected) {
  const std::string dup =
      PanelCorruptor().SetDay(4, "3").Write("corrupt_dup.csv");
  auto r1 = LoadPricePanel(dup);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().ToString().find("duplicate day"), std::string::npos);
  EXPECT_NE(r1.status().ToString().find("row 4"), std::string::npos);
  std::remove(dup.c_str());

  // "-1" has not been seen before but is smaller than every prior label,
  // so it trips the ordering check rather than the duplicate check.
  const std::string ooo =
      PanelCorruptor().SetDay(6, "-1").Write("corrupt_ooo.csv");
  auto r2 = LoadPricePanel(ooo);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().ToString().find("out-of-order day"),
            std::string::npos);
  std::remove(ooo.c_str());
}

TEST(CorruptorStrictTest, TruncatedRowRejected) {
  const std::string path =
      PanelCorruptor().Truncate(7, 3).Write("corrupt_trunc.csv");
  EXPECT_FALSE(LoadPricePanel(path).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tolerant mode: defects are repaired and accounted exactly.
// ---------------------------------------------------------------------------

TEST(CorruptorTolerantTest, ForwardFillRepairsWithExactCounts) {
  // Three bad cells in stock BBB plus a leading gap in stock AAA.
  const std::string path = PanelCorruptor()
                               .SetCell(0, 0, "")       // leading gap -> backfill
                               .SetCell(4, 1, "nan")
                               .SetCell(5, 1, "-1")
                               .SetCell(8, 1, "oops")
                               .Write("tolerant_fill.csv");
  LoadReport report;
  auto panel = LoadPricePanel(path, Tolerant(), &report).ValueOrDie();
  EXPECT_EQ(report.rows_read, 10);
  EXPECT_EQ(report.days_kept, 10);
  EXPECT_EQ(report.bad_cells, 4);
  EXPECT_EQ(report.filled_cells, 4);
  EXPECT_EQ(report.dropped_days, 0);
  EXPECT_EQ(report.low_coverage_stocks, 0);
  ASSERT_EQ(panel.prices.shape(), (Shape{10, 4}));
  // Forward fill: day 4 and 5 of BBB carry day 3's price.
  EXPECT_FLOAT_EQ(panel.prices.at({4, 1}), panel.prices.at({3, 1}));
  EXPECT_FLOAT_EQ(panel.prices.at({5, 1}), panel.prices.at({3, 1}));
  // Leading backfill: day 0 of AAA takes day 1's price.
  EXPECT_FLOAT_EQ(panel.prices.at({0, 0}), panel.prices.at({1, 0}));
  EXPECT_TRUE(CheckFinite(panel.prices));
  std::remove(path.c_str());
}

TEST(CorruptorTolerantTest, DropDayPolicyDropsWholeRows) {
  const std::string path = PanelCorruptor()
                               .SetCell(2, 0, "nan")
                               .SetCell(6, 3, "")
                               .Write("tolerant_drop.csv");
  LoadOptions options = Tolerant();
  options.cell_repair = LoadOptions::CellRepair::kDropDay;
  LoadReport report;
  auto panel = LoadPricePanel(path, options, &report).ValueOrDie();
  EXPECT_EQ(report.days_kept, 8);
  EXPECT_EQ(report.dropped_days, 2);
  EXPECT_EQ(report.bad_cells, 2);
  EXPECT_EQ(report.filled_cells, 0);
  EXPECT_EQ(panel.prices.dim(0), 8);
  EXPECT_TRUE(CheckFinite(panel.prices));
  std::remove(path.c_str());
}

TEST(CorruptorTolerantTest, DuplicateOutOfOrderAndTruncatedRowsAccounted) {
  const std::string path = PanelCorruptor()
                               .SetDay(4, "3")   // duplicate of row 3
                               .SetDay(7, "-1")  // out of order (fresh label)
                               .Truncate(9, 3)   // missing CCC and DDD cells
                               .Write("tolerant_days.csv");
  LoadReport report;
  auto panel = LoadPricePanel(path, Tolerant(), &report).ValueOrDie();
  EXPECT_EQ(report.rows_read, 10);
  EXPECT_EQ(report.duplicate_days, 1);
  EXPECT_EQ(report.out_of_order_days, 1);
  EXPECT_EQ(report.dropped_days, 2);
  EXPECT_EQ(report.days_kept, 8);
  EXPECT_EQ(report.truncated_rows, 1);
  EXPECT_EQ(report.bad_cells, 2);  // the two truncated-away cells
  EXPECT_EQ(panel.prices.dim(0), 8);
  EXPECT_FALSE(report.Summary().empty());
  EXPECT_NE(report.Summary().find("duplicate"), std::string::npos);
  // The report is optional: counting a dropped day without one must not
  // touch it (csv_fuzz_test found a null member access under UBSan).
  EXPECT_TRUE(LoadPricePanel(path, Tolerant(), nullptr).ok());
  std::remove(path.c_str());
}

TEST(CorruptorTolerantTest, CoverageFilterDropsSparseStocks) {
  // DDD is valid on only 8 of 10 days (80% coverage < 98%).
  const std::string path = PanelCorruptor()
                               .SetCell(1, 3, "")
                               .SetCell(2, 3, "nan")
                               .Write("tolerant_cov.csv");
  LoadReport report;
  auto panel =
      LoadPricePanel(path, Tolerant(/*min_coverage=*/0.98), &report)
          .ValueOrDie();
  EXPECT_EQ(report.low_coverage_stocks, 1);
  ASSERT_EQ(report.dropped_tickers.size(), 1u);
  EXPECT_EQ(report.dropped_tickers[0], "DDD");
  EXPECT_EQ(panel.tickers,
            (std::vector<std::string>{"AAA", "BBB", "CCC"}));
  EXPECT_EQ(panel.prices.shape(), (Shape{10, 3}));
  // Dropped stocks do not leave filled cells behind.
  EXPECT_EQ(report.filled_cells, 0);
  EXPECT_NE(report.Summary().find("low-coverage"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CorruptorTolerantTest, AllRowsBadFailsEvenTolerantly) {
  PanelCorruptor corruptor;
  for (int t = 1; t < 10; ++t) corruptor.SetDay(t, "0");  // all duplicates
  const std::string path = corruptor.SetCell(0, 0, "x")
                               .SetCell(0, 1, "x")
                               .SetCell(0, 2, "x")
                               .SetCell(0, 3, "x")
                               .Write("tolerant_allbad.csv");
  LoadOptions options = Tolerant();
  options.cell_repair = LoadOptions::CellRepair::kDropDay;
  LoadReport report;
  EXPECT_FALSE(LoadPricePanel(path, options, &report).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Relation-list corruption
// ---------------------------------------------------------------------------

PricePanel CleanPanel() {
  const std::string path = PanelCorruptor().Write("rel_panel.csv");
  auto panel = LoadPricePanel(path).ValueOrDie();
  std::remove(path.c_str());
  return panel;
}

std::string WriteRelations(const std::string& name,
                           const std::vector<std::string>& rows) {
  const std::string path = "/tmp/" + name;
  std::ofstream out(path);
  out << "stock_i,stock_j,type\n";
  for (const auto& row : rows) out << row << '\n';
  return path;
}

TEST(CorruptorRelationTest, StrictRejectsEachDefect) {
  PricePanel panel = CleanPanel();
  struct Defect {
    std::string row;
    StatusCode code;
    std::string expect;
  };
  const std::vector<Defect> defects = {
      {"AAA,ZZZ,0", StatusCode::kNotFound, "unknown ticker 'ZZZ'"},
      {"AAA,BBB,xyz", StatusCode::kInvalidArgument, "bad relation type"},
      {"AAA,BBB,7", StatusCode::kInvalidArgument, "bad relation type"},
      {"AAA,BBB,-1", StatusCode::kInvalidArgument, "bad relation type"},
      {"AAA,AAA,0", StatusCode::kInvalidArgument, "self relation"},
  };
  for (const auto& defect : defects) {
    const std::string path =
        WriteRelations("rel_strict.csv", {"AAA,BBB,0", defect.row});
    auto result = LoadRelations(path, panel, /*num_relation_types=*/3);
    ASSERT_FALSE(result.ok()) << defect.row;
    EXPECT_EQ(result.status().code(), defect.code) << defect.row;
    const std::string message = result.status().ToString();
    EXPECT_NE(message.find("row 1"), std::string::npos) << message;
    EXPECT_NE(message.find(defect.expect), std::string::npos) << message;
    std::remove(path.c_str());
  }
  // A malformed row (wrong field count) fails the strict CSV read itself.
  const std::string path = WriteRelations("rel_ragged.csv", {"AAA,BBB"});
  EXPECT_FALSE(LoadRelations(path, panel, 3).ok());
  std::remove(path.c_str());
}

TEST(CorruptorRelationTest, TolerantSkipsAndCountsEveryDefect) {
  PricePanel panel = CleanPanel();
  const std::string path = WriteRelations(
      "rel_tolerant.csv",
      {
          "AAA,BBB,0",    // good
          "AAA,ZZZ,0",    // unknown ticker
          "CCC,DDD,1",    // good
          "AAA,BBB,xyz",  // bad type (non-numeric)
          "AAA,BBB,9",    // bad type (out of range)
          "BBB,BBB,0",    // self loop
          "AAA,BBB,0",    // duplicate edge
          "AAA,BBB",      // malformed (2 fields)
      });
  LoadReport report;
  auto relations =
      LoadRelations(path, panel, 3, Tolerant(), &report).ValueOrDie();
  EXPECT_EQ(report.relation_rows, 8);
  EXPECT_EQ(report.edges_added, 2);
  EXPECT_EQ(report.unknown_ticker_rows, 1);
  EXPECT_EQ(report.bad_type_rows, 2);
  EXPECT_EQ(report.self_loop_rows, 1);
  EXPECT_EQ(report.duplicate_edges, 1);
  EXPECT_EQ(report.malformed_relation_rows, 1);
  EXPECT_TRUE(relations.HasEdge(0, 1));
  EXPECT_TRUE(relations.HasEdge(2, 3));
  EXPECT_FALSE(relations.HasEdge(1, 2));
  EXPECT_NE(report.Summary().find("unknown ticker"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CorruptorRelationTest, TickerIndexIsConsistentWithLoadedPanel) {
  PricePanel panel = CleanPanel();
  EXPECT_EQ(panel.TickerIndex("AAA"), 0);
  EXPECT_EQ(panel.TickerIndex("DDD"), 3);
  EXPECT_EQ(panel.TickerIndex("ZZZ"), -1);
  EXPECT_EQ(panel.TickerIndex("AAA"), 0);  // cached lookup stays correct
}

}  // namespace
}  // namespace rtgcn::market
