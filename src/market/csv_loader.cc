#include "market/csv_loader.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/csv.h"
#include "common/logging.h"

namespace rtgcn::market {

namespace {

using Mode = LoadOptions::Mode;
using CellRepair = LoadOptions::CellRepair;

// Why a price cell is unusable; kOk means a clean positive finite price.
enum class CellFault { kOk, kMissing, kNotANumber, kNonFinite, kNonPositive };

CellFault ParsePrice(const std::string& cell, double* value) {
  if (cell.empty()) return CellFault::kMissing;
  char* end = nullptr;
  *value = std::strtod(cell.c_str(), &end);
  if (end == cell.c_str() || *end != '\0') return CellFault::kNotANumber;
  // Judged as the float the panel stores: a double beyond FLT_MAX would
  // become inf, and one below the smallest float would become 0.
  const float stored = static_cast<float>(*value);
  if (!std::isfinite(stored)) return CellFault::kNonFinite;
  if (stored <= 0) return CellFault::kNonPositive;
  return CellFault::kOk;
}

const char* FaultName(CellFault fault) {
  switch (fault) {
    case CellFault::kOk: return "ok";
    case CellFault::kMissing: return "missing";
    case CellFault::kNotANumber: return "non-numeric";
    case CellFault::kNonFinite: return "non-finite";
    case CellFault::kNonPositive: return "non-positive";
  }
  return "?";
}

// True when the whole string parses as a base-10 integer.
bool ParseInt(const std::string& s, int64_t* value) {
  if (s.empty()) return false;
  char* end = nullptr;
  *value = std::strtoll(s.c_str(), &end, 10);
  return end != s.c_str() && *end == '\0';
}

// `kind` names the counter, so a null report is never dereferenced.
void CountDroppedDay(LoadReport* report, int64_t LoadReport::*kind) {
  if (report == nullptr) return;
  ++report->dropped_days;
  ++(report->*kind);
}

}  // namespace

std::string LoadReport::Summary() const {
  std::ostringstream oss;
  oss << days_kept << " days kept of " << rows_read << " rows";
  if (bad_cells > 0) oss << ", " << bad_cells << " bad cells";
  if (filled_cells > 0) oss << ", " << filled_cells << " filled";
  if (duplicate_days > 0) oss << ", " << duplicate_days << " duplicate days";
  if (out_of_order_days > 0) {
    oss << ", " << out_of_order_days << " out-of-order days";
  }
  if (truncated_rows > 0) oss << ", " << truncated_rows << " truncated rows";
  if (low_coverage_stocks > 0) {
    oss << ", " << low_coverage_stocks << " low-coverage stocks dropped";
  }
  if (relation_rows > 0) {
    oss << "; " << edges_added << " edges of " << relation_rows
        << " relation rows";
    if (unknown_ticker_rows > 0) {
      oss << ", " << unknown_ticker_rows << " unknown tickers";
    }
    if (bad_type_rows > 0) oss << ", " << bad_type_rows << " bad types";
    if (self_loop_rows > 0) oss << ", " << self_loop_rows << " self-loops";
    if (duplicate_edges > 0) {
      oss << ", " << duplicate_edges << " duplicate edges";
    }
    if (malformed_relation_rows > 0) {
      oss << ", " << malformed_relation_rows << " malformed rows";
    }
  }
  return oss.str();
}

int64_t PricePanel::TickerIndex(const std::string& ticker) const {
  if (index_.size() != tickers.size()) {
    index_.clear();
    for (size_t i = 0; i < tickers.size(); ++i) {
      index_.emplace(tickers[i], static_cast<int64_t>(i));
    }
  }
  auto it = index_.find(ticker);
  return it == index_.end() ? -1 : it->second;
}

Result<PricePanel> LoadPricePanel(const std::string& path) {
  return LoadPricePanel(path, LoadOptions{}, nullptr);
}

Result<PricePanel> LoadPricePanel(const std::string& path,
                                  const LoadOptions& options,
                                  LoadReport* report) {
  const bool tolerant = options.mode == Mode::kTolerant;
  RTGCN_ASSIGN_OR_RETURN(CsvTable table, ReadCsv(path, tolerant));
  if (table.header.size() < 2) {
    return Status::InvalidArgument(path, ": need at least one ticker column");
  }
  // Every ticker must be nameable: no empty or repeated header name, in
  // either mode. Columns count from 0 at the day column.
  std::unordered_map<std::string, size_t> header_column;
  for (size_t col = 1; col < table.header.size(); ++col) {
    const std::string& name = table.header[col];
    if (name.empty()) {
      return Status::InvalidArgument(path, ": empty ticker name in column ",
                                     col);
    }
    const auto [it, inserted] = header_column.emplace(name, col);
    if (!inserted) {
      return Status::InvalidArgument(path, ": ticker '", name,
                                     "' repeats in columns ", it->second,
                                     " and ", col);
    }
  }
  if (table.rows.empty()) {
    return Status::InvalidArgument(path, ": no data rows");
  }
  const int64_t n = static_cast<int64_t>(table.header.size()) - 1;
  const std::vector<std::string> tickers(table.header.begin() + 1,
                                         table.header.end());
  if (report != nullptr) {
    report->rows_read = static_cast<int64_t>(table.rows.size());
  }

  // Pass 1 — screen the day column: duplicate labels (vs any prior row)
  // and, when the labels are integers, ordering violations.
  std::vector<int64_t> kept_rows;
  std::unordered_set<std::string> seen_days;
  bool days_numeric = true;
  int64_t prev_day = 0;
  bool have_prev = false;
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const std::string& day = table.rows[r].empty() ? "" : table.rows[r][0];
    if (!seen_days.insert(day).second) {
      if (!tolerant) {
        return Status::InvalidArgument(path, " row ", r, ": duplicate day '",
                                       day, "'");
      }
      CountDroppedDay(report, &LoadReport::duplicate_days);
      continue;
    }
    int64_t day_value = 0;
    if (days_numeric && ParseInt(day, &day_value)) {
      if (have_prev && day_value <= prev_day) {
        if (!tolerant) {
          return Status::InvalidArgument(path, " row ", r,
                                         ": out-of-order day '", day, "'");
        }
        CountDroppedDay(report, &LoadReport::out_of_order_days);
        seen_days.erase(day);  // an in-order copy later may still be kept
        continue;
      }
      prev_day = day_value;
      have_prev = true;
    } else {
      // Non-integer day labels: ordering is not checked, only duplicates.
      days_numeric = false;
    }
    kept_rows.push_back(static_cast<int64_t>(r));
  }

  // Pass 2 — parse cells into a value/validity grid over the kept rows.
  std::vector<double> values;
  std::vector<char> valid;
  values.reserve(kept_rows.size() * n);
  valid.reserve(kept_rows.size() * n);
  std::vector<int64_t> grid_rows;
  for (int64_t r : kept_rows) {
    const auto& row = table.rows[r];
    const bool ragged = static_cast<int64_t>(row.size()) != n + 1;
    if (ragged) {
      // ReadCsv already failed strict loads on ragged rows, so only
      // tolerant loads reach here.
      if (report != nullptr) ++report->truncated_rows;
    }
    std::vector<double> row_values(n, 0);
    std::vector<char> row_valid(n, 0);
    int64_t row_bad = 0;
    for (int64_t i = 0; i < n; ++i) {
      const std::string cell =
          i + 1 < static_cast<int64_t>(row.size()) ? row[i + 1] : "";
      double value = 0;
      const CellFault fault = ParsePrice(cell, &value);
      if (fault == CellFault::kOk) {
        row_values[i] = value;
        row_valid[i] = 1;
        continue;
      }
      if (!tolerant) {
        return Status::InvalidArgument(path, " row ", r, " col '", tickers[i],
                                       "': ", FaultName(fault), " price '",
                                       cell, "'");
      }
      ++row_bad;
      if (report != nullptr) ++report->bad_cells;
    }
    if (tolerant && row_bad > 0 &&
        options.cell_repair == CellRepair::kDropDay) {
      if (report != nullptr) ++report->dropped_days;
      continue;
    }
    grid_rows.push_back(r);
    values.insert(values.end(), row_values.begin(), row_values.end());
    valid.insert(valid.end(), row_valid.begin(), row_valid.end());
  }
  const int64_t days = static_cast<int64_t>(grid_rows.size());
  if (days == 0) {
    return Status::InvalidArgument(path, ": no usable day rows");
  }

  // Pass 3 — coverage filter (tolerant only): keep stocks whose
  // originally-valid cells cover at least min_coverage of the kept days.
  std::vector<int64_t> kept_stocks;
  for (int64_t i = 0; i < n; ++i) {
    int64_t valid_days = 0;
    for (int64_t t = 0; t < days; ++t) valid_days += valid[t * n + i];
    const double coverage =
        static_cast<double>(valid_days) / static_cast<double>(days);
    if (tolerant && (valid_days == 0 || coverage < options.min_coverage)) {
      if (report != nullptr) {
        ++report->low_coverage_stocks;
        report->dropped_tickers.push_back(tickers[i]);
      }
      RTGCN_LOG(Warning) << path << ": dropping '" << tickers[i]
                         << "' at coverage " << coverage << " < "
                         << options.min_coverage;
      continue;
    }
    kept_stocks.push_back(i);
  }
  if (kept_stocks.empty()) {
    return Status::InvalidArgument(
        path, ": no stock meets the coverage threshold ",
        options.min_coverage);
  }

  // Pass 4 — materialize the panel, forward-filling surviving gaps.
  PricePanel panel;
  for (int64_t i : kept_stocks) panel.tickers.push_back(tickers[i]);
  const int64_t kept_n = static_cast<int64_t>(kept_stocks.size());
  panel.prices = Tensor({days, kept_n});
  for (int64_t c = 0; c < kept_n; ++c) {
    const int64_t i = kept_stocks[c];
    // Backfill leader for leading gaps: the stock's first valid price.
    double last = 0;
    for (int64_t t = 0; t < days; ++t) {
      if (valid[t * n + i]) {
        last = values[t * n + i];
        break;
      }
    }
    for (int64_t t = 0; t < days; ++t) {
      if (valid[t * n + i]) {
        last = values[t * n + i];
      } else if (report != nullptr) {
        ++report->filled_cells;
      }
      panel.prices.at({t, c}) = static_cast<float>(last);
    }
  }
  if (report != nullptr) report->days_kept = days;
  return panel;
}

Result<graph::RelationTensor> LoadRelations(const std::string& path,
                                            const PricePanel& panel,
                                            int64_t num_relation_types) {
  return LoadRelations(path, panel, num_relation_types, LoadOptions{},
                       nullptr);
}

Result<graph::RelationTensor> LoadRelations(const std::string& path,
                                            const PricePanel& panel,
                                            int64_t num_relation_types,
                                            const LoadOptions& options,
                                            LoadReport* report) {
  const bool tolerant = options.mode == Mode::kTolerant;
  RTGCN_ASSIGN_OR_RETURN(CsvTable table, ReadCsv(path, tolerant));
  if (table.header.size() != 3) {
    return Status::InvalidArgument(path,
                                   ": expected header stock_i,stock_j,type");
  }
  // O(1) ticker lookups so relation loading is O(rows), not O(rows * N).
  std::unordered_map<std::string, int64_t> ticker_index;
  ticker_index.reserve(panel.tickers.size());
  for (size_t i = 0; i < panel.tickers.size(); ++i) {
    ticker_index.emplace(panel.tickers[i], static_cast<int64_t>(i));
  }
  graph::RelationTensor relations(
      static_cast<int64_t>(panel.tickers.size()), num_relation_types);
  if (report != nullptr) {
    report->relation_rows = static_cast<int64_t>(table.rows.size());
  }
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    if (row.size() != 3) {
      // Strict loads fail inside ReadCsv; only tolerant loads see this.
      if (report != nullptr) ++report->malformed_relation_rows;
      RTGCN_LOG(Warning) << path << " row " << r << ": expected 3 fields, got "
                         << row.size() << "; skipped";
      continue;
    }
    const auto it_i = ticker_index.find(row[0]);
    const auto it_j = ticker_index.find(row[1]);
    if (it_i == ticker_index.end() || it_j == ticker_index.end()) {
      if (!tolerant) {
        return Status::NotFound(path, " row ", r, ": unknown ticker '",
                                it_i == ticker_index.end() ? row[0] : row[1],
                                "'");
      }
      if (report != nullptr) ++report->unknown_ticker_rows;
      RTGCN_LOG(Warning) << path << " row " << r << ": unknown ticker '"
                         << (it_i == ticker_index.end() ? row[0] : row[1])
                         << "'; skipped";
      continue;
    }
    const int64_t i = it_i->second;
    const int64_t j = it_j->second;
    int64_t type = 0;
    if (!ParseInt(row[2], &type) || type < 0 || type >= num_relation_types) {
      if (!tolerant) {
        return Status::InvalidArgument(path, " row ", r,
                                       ": bad relation type '", row[2],
                                       "' (want integer in [0, ",
                                       num_relation_types, "))");
      }
      if (report != nullptr) ++report->bad_type_rows;
      RTGCN_LOG(Warning) << path << " row " << r << ": bad relation type '"
                         << row[2] << "'; skipped";
      continue;
    }
    if (i == j) {
      if (!tolerant) {
        return Status::InvalidArgument(path, " row ", r, ": self relation '",
                                       row[0], "'");
      }
      if (report != nullptr) ++report->self_loop_rows;
      RTGCN_LOG(Warning) << path << " row " << r << ": self relation '"
                         << row[0] << "'; skipped";
      continue;
    }
    const std::vector<int32_t> existing = relations.Types(i, j);
    const bool duplicate =
        std::find(existing.begin(), existing.end(),
                  static_cast<int32_t>(type)) != existing.end();
    if (duplicate) {
      // Duplicates are harmless (AddRelation is idempotent); tolerant mode
      // accounts for them so the report reflects the file's true quality.
      if (report != nullptr) ++report->duplicate_edges;
      if (tolerant) {
        RTGCN_LOG(Warning) << path << " row " << r << ": duplicate relation ("
                           << row[0] << ", " << row[1] << ", " << type
                           << "); skipped";
        continue;
      }
    }
    RTGCN_RETURN_NOT_OK(relations.AddRelation(i, j, type));
    if (report != nullptr && !duplicate) ++report->edges_added;
  }
  return relations;
}

}  // namespace rtgcn::market
