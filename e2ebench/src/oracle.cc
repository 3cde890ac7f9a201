#include "oracle.h"

#include <cmath>
#include <set>

#include "catalog/encoding.h"

namespace e2ebench {

using fusiondb::Catalog;
using fusiondb::Column;
using fusiondb::Result;
using fusiondb::Status;
using fusiondb::TablePtr;

namespace {

/// Every partition's page of column `name`, decoded, in partition order.
Result<std::vector<Column>> DecodeAll(const fusiondb::Table& table,
                                      const std::string& name) {
  int index = table.ColumnIndex(name);
  if (index < 0) {
    return Status::InvalidArgument(table.name() + " has no column " + name);
  }
  std::vector<Column> out;
  for (const fusiondb::Partition& p : table.partitions()) {
    FUSIONDB_ASSIGN_OR_RETURN(
        Column c, fusiondb::DecodeColumn(p.columns[static_cast<size_t>(index)]));
    out.push_back(std::move(c));
  }
  return out;
}

/// Decoded columns of one table, addressed [column][partition].
Result<std::vector<std::vector<Column>>> DecodeColumns(
    const TablePtr& table, const std::vector<std::string>& names) {
  std::vector<std::vector<Column>> out;
  for (const std::string& name : names) {
    FUSIONDB_ASSIGN_OR_RETURN(std::vector<Column> c, DecodeAll(*table, name));
    out.push_back(std::move(c));
  }
  return out;
}

/// SQL `x BETWEEN lo AND hi` is TRUE only for a non-NULL x in range.
bool IntBetween(const Column& c, size_t row, int64_t lo, int64_t hi) {
  return c.IsValid(row) && c.IntAt(row) >= lo && c.IntAt(row) <= hi;
}
bool DoubleBetween(const Column& c, size_t row, double lo, double hi) {
  return c.IsValid(row) && c.DoubleAt(row) >= lo && c.DoubleAt(row) <= hi;
}

std::optional<double> Average(double sum, int64_t count) {
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

}  // namespace

Result<ExpectedRows> ComputeQ09(const Catalog& catalog) {
  FUSIONDB_ASSIGN_OR_RETURN(TablePtr reason, catalog.GetTable("reason"));
  FUSIONDB_ASSIGN_OR_RETURN(TablePtr sales, catalog.GetTable("store_sales"));
  FUSIONDB_ASSIGN_OR_RETURN(std::vector<Column> reason_sk,
                            DecodeAll(*reason, "r_reason_sk"));
  FUSIONDB_ASSIGN_OR_RETURN(
      auto cols, DecodeColumns(sales, {"ss_quantity", "ss_ext_discount_amt",
                                       "ss_net_profit"}));
  const int64_t threshold = sales->num_rows() / 6;

  std::vector<std::optional<double>> row;
  for (int b = 0; b < 5; ++b) {
    const int64_t lo = 1 + 20 * b;
    const int64_t hi = 20 * (b + 1);
    int64_t count = 0;
    int64_t discount_n = 0, profit_n = 0;
    double discount_sum = 0, profit_sum = 0;
    for (size_t p = 0; p < cols[0].size(); ++p) {
      const Column& qty = cols[0][p];
      const Column& discount = cols[1][p];
      const Column& profit = cols[2][p];
      for (size_t r = 0; r < qty.size(); ++r) {
        if (!IntBetween(qty, r, lo, hi)) continue;
        ++count;
        if (discount.IsValid(r)) {
          discount_sum += discount.DoubleAt(r);
          ++discount_n;
        }
        if (profit.IsValid(r)) {
          profit_sum += profit.DoubleAt(r);
          ++profit_n;
        }
      }
    }
    row.push_back(count > threshold ? Average(discount_sum, discount_n)
                                    : Average(profit_sum, profit_n));
  }
  // The buckets are cross-joined onto the reason rows with r_reason_sk = 1.
  ExpectedRows out;
  for (const Column& c : reason_sk) {
    for (size_t r = 0; r < c.size(); ++r) {
      if (c.IsValid(r) && c.IntAt(r) == 1) out.push_back(row);
    }
  }
  return out;
}

Result<ExpectedRows> ComputeQ28(const Catalog& catalog) {
  FUSIONDB_ASSIGN_OR_RETURN(TablePtr sales, catalog.GetTable("store_sales"));
  FUSIONDB_ASSIGN_OR_RETURN(
      auto cols, DecodeColumns(sales, {"ss_quantity", "ss_list_price",
                                       "ss_coupon_amt", "ss_wholesale_cost"}));
  std::vector<std::optional<double>> row;
  for (int b = 0; b < 6; ++b) {
    const int64_t qty_lo = b * 5;
    const double lp_lo = 10.0 * b + 8.0;
    const double cp_lo = 100.0 * b + 40.0;
    const double wc_lo = 10.0 * b + 5.0;
    int64_t count = 0;
    double sum = 0;
    std::set<double> distinct;
    for (size_t p = 0; p < cols[0].size(); ++p) {
      const Column& qty = cols[0][p];
      const Column& list = cols[1][p];
      const Column& coupon = cols[2][p];
      const Column& wholesale = cols[3][p];
      for (size_t r = 0; r < qty.size(); ++r) {
        // AND of the quantity range with a three-way OR: a NULL operand
        // makes its comparison unknown, which never passes the filter.
        bool pass = IntBetween(qty, r, qty_lo, qty_lo + 5) &&
                    (DoubleBetween(list, r, lp_lo, lp_lo + 100.0) ||
                     DoubleBetween(coupon, r, cp_lo, cp_lo + 1000.0) ||
                     DoubleBetween(wholesale, r, wc_lo, wc_lo + 80.0));
        if (!pass || list.IsNull(r)) continue;
        ++count;
        sum += list.DoubleAt(r);
        distinct.insert(list.DoubleAt(r));
      }
    }
    row.push_back(Average(sum, count));
    row.push_back(static_cast<double>(count));
    row.push_back(static_cast<double>(distinct.size()));
  }
  return ExpectedRows{row};
}

std::string CompareRows(const fusiondb::QueryResult& result,
                        const ExpectedRows& expected) {
  if (result.num_rows() != static_cast<int64_t>(expected.size())) {
    return std::to_string(result.num_rows()) + " rows, expected " +
           std::to_string(expected.size());
  }
  for (size_t r = 0; r < expected.size(); ++r) {
    if (result.schema().num_columns() != expected[r].size()) {
      return std::to_string(result.schema().num_columns()) +
             " columns, expected " + std::to_string(expected[r].size());
    }
    for (size_t c = 0; c < expected[r].size(); ++c) {
      fusiondb::Value got =
          result.At(static_cast<int64_t>(r), static_cast<int>(c));
      const std::optional<double>& want = expected[r][c];
      bool same = got.is_null() == !want.has_value();
      if (same && want.has_value()) {
        same = std::fabs(got.AsDouble() - *want) <=
               1e-9 * std::max(1.0, std::fabs(*want));
      }
      if (!same) {
        return "row " + std::to_string(r) + " column " + std::to_string(c) +
               ": " + got.ToString() + ", expected " +
               (want.has_value() ? std::to_string(*want) : "NULL");
      }
    }
  }
  return "";
}

}  // namespace e2ebench
