// Loads real market data from CSV so the library can run on actual price
// histories (e.g. exported from yfinance) instead of the simulator.
//
// Price panel format: header "day,<ticker1>,<ticker2>,...", one row per
// trading day, close prices as decimals.
// Relation list format: header "stock_i,stock_j,type" with ticker names and
// integer relation-type ids.
//
// Two ingestion policies (LoadOptions::Mode):
//   kStrict   — any blemish (missing/NaN/Inf/non-positive cell, duplicate
//               or out-of-order day, malformed relation row) fails the load
//               with a precise row/column error;
//   kTolerant — blemishes are repaired or dropped (forward-fill or drop-day
//               for bad cells, coverage-threshold stock filtering per the
//               paper's ≥98%-trading-days rule, warn-and-skip for bad
//               relation rows) and every repair is counted in a LoadReport.
#ifndef RTGCN_MARKET_CSV_LOADER_H_
#define RTGCN_MARKET_CSV_LOADER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/relation_tensor.h"
#include "tensor/tensor.h"

namespace rtgcn::market {

/// \brief Ingestion policy for LoadPricePanel / LoadRelations.
struct LoadOptions {
  enum class Mode {
    kStrict,    ///< reject any blemish with a precise error
    kTolerant,  ///< repair or drop blemishes, recording them in a LoadReport
  };
  /// How tolerant mode repairs an invalid price cell (missing, empty,
  /// non-numeric, NaN, Inf, or <= 0).
  enum class CellRepair {
    kForwardFill,  ///< carry the stock's last valid price forward (leading
                   ///< gaps are backfilled from its first valid price)
    kDropDay,      ///< drop the whole day row containing the invalid cell
  };

  Mode mode = Mode::kStrict;
  CellRepair cell_repair = CellRepair::kForwardFill;

  /// Tolerant mode drops stocks whose originally-valid cells cover less
  /// than this fraction of the kept days — the paper (and RSR, Feng et al.
  /// 2019) trains only on stocks trading on >= 98% of days. Set to 0 to
  /// keep every stock with at least one valid price.
  double min_coverage = 0.98;
};

/// \brief Structured account of everything a load repaired or dropped.
///
/// Filled by both loaders (each touches only its own section); zero-valued
/// in strict mode except the `*_read`/`*_kept` totals.
struct LoadReport {
  // --- price panel ---
  int64_t rows_read = 0;       ///< data rows in the file
  int64_t days_kept = 0;       ///< day rows in the returned panel
  int64_t bad_cells = 0;       ///< invalid price cells encountered
  int64_t filled_cells = 0;    ///< cells repaired by forward/backward fill
  int64_t dropped_days = 0;    ///< day rows dropped (all causes)
  int64_t duplicate_days = 0;  ///< rows dropped as duplicate day labels
  int64_t out_of_order_days = 0;  ///< rows dropped as out-of-order days
  int64_t truncated_rows = 0;  ///< rows shorter/longer than the header
  int64_t low_coverage_stocks = 0;  ///< stocks dropped by min_coverage
  std::vector<std::string> dropped_tickers;  ///< names of dropped stocks

  // --- relation list ---
  int64_t relation_rows = 0;        ///< data rows in the relation file
  int64_t edges_added = 0;          ///< relations actually inserted
  int64_t unknown_ticker_rows = 0;  ///< rows naming a ticker not in the panel
  int64_t bad_type_rows = 0;        ///< non-integer or out-of-range type ids
  int64_t self_loop_rows = 0;       ///< rows relating a stock to itself
  int64_t duplicate_edges = 0;      ///< repeated (i, j, type) rows
  int64_t malformed_relation_rows = 0;  ///< rows without exactly 3 fields

  /// One-line human-readable summary of all non-zero counts.
  std::string Summary() const;
};

/// \brief A loaded real-data price panel.
struct PricePanel {
  std::vector<std::string> tickers;
  Tensor prices;  ///< [days, N]

  /// Index of `ticker` or -1. O(1) via the lazily built ticker map.
  int64_t TickerIndex(const std::string& ticker) const;

 private:
  mutable std::unordered_map<std::string, int64_t> index_;  // lazy cache
};

/// Parses a price-panel CSV in strict mode. Fails on non-numeric,
/// non-finite or non-positive prices, inconsistent row widths, and
/// duplicate or out-of-order day labels. Both modes fail on an empty or
/// repeated ticker name in the header.
Result<PricePanel> LoadPricePanel(const std::string& path);

/// Parses a price-panel CSV under `options`, accounting every repair in
/// `report` (optional, may be null).
Result<PricePanel> LoadPricePanel(const std::string& path,
                                  const LoadOptions& options,
                                  LoadReport* report);

/// Parses a relation-list CSV against a loaded panel's tickers in strict
/// mode. `num_relation_types` must exceed every type id in the file.
Result<graph::RelationTensor> LoadRelations(const std::string& path,
                                            const PricePanel& panel,
                                            int64_t num_relation_types);

/// Parses a relation-list CSV under `options`, accounting every skipped
/// row in `report` (optional, may be null).
Result<graph::RelationTensor> LoadRelations(const std::string& path,
                                            const PricePanel& panel,
                                            int64_t num_relation_types,
                                            const LoadOptions& options,
                                            LoadReport* report);

}  // namespace rtgcn::market

#endif  // RTGCN_MARKET_CSV_LOADER_H_
