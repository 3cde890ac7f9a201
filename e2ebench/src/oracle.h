// Answers for TPC-DS q09 and q28 computed by plain loops over the decoded
// store_sales columns, with SQL NULL semantics, so the engine's rows can be
// checked against a computation that uses neither the optimizer nor the
// executor.
#ifndef FUSIONDB_E2EBENCH_ORACLE_H_
#define FUSIONDB_E2EBENCH_ORACLE_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/query_result.h"

namespace e2ebench {

/// One expected result: rows of nullable numbers, in output column order.
using ExpectedRows = std::vector<std::vector<std::optional<double>>>;

/// q09: five CASE buckets over store_sales quantity ranges, one row per
/// reason row with r_reason_sk = 1.
fusiondb::Result<ExpectedRows> ComputeQ09(const fusiondb::Catalog& catalog);

/// q28: AVG, COUNT and COUNT(DISTINCT) of ss_list_price in six buckets.
fusiondb::Result<ExpectedRows> ComputeQ28(const fusiondb::Catalog& catalog);

/// Empty when `result` holds exactly `expected` (doubles within a relative
/// 1e-9, since summation order may differ); otherwise the first difference.
std::string CompareRows(const fusiondb::QueryResult& result,
                        const ExpectedRows& expected);

}  // namespace e2ebench

#endif  // FUSIONDB_E2EBENCH_ORACLE_H_
