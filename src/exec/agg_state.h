// Shared aggregate accumulation machinery used by the hash-aggregation and
// window operators. Implements the Athena-style (function, mask) pairs of
// Section III.E, plus DISTINCT arguments.
#ifndef FUSIONDB_EXEC_AGG_STATE_H_
#define FUSIONDB_EXEC_AGG_STATE_H_

#include <cstdint>
#include <unordered_set>

#include "expr/evaluator.h"
#include "plan/logical_plan.h"
#include "types/value.h"

namespace fusiondb {

/// Hash/equality functors so DISTINCT sets can key on single Values.
struct ValueHashFn {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Accumulator for one aggregate function within one group.
struct AggState {
  int64_t mask_rows = 0;      // rows passing the mask (COUNT(*))
  int64_t non_null_args = 0;  // non-NULL argument rows passing the mask
  int64_t sum_i = 0;
  double sum_d = 0.0;
  bool has_minmax = false;
  Value minmax;
  std::unordered_set<Value, ValueHashFn> distinct;

  /// Accumulates straight from a column, avoiding Value boxing for the
  /// numeric non-distinct cases (the hot path after mask deduplication).
  void AccumulateColumnRow(const AggregateItem& item, const Column& col,
                           size_t row) {
    ++mask_rows;
    if (item.func == AggFunc::kCountStar) return;
    if (col.IsNull(row)) return;
    if (item.distinct || item.func == AggFunc::kMin ||
        item.func == AggFunc::kMax) {
      if (item.distinct) {
        distinct.insert(col.GetValue(row));
      } else {
        AccumulateNonDistinct(item.func, col.GetValue(row));
      }
      return;
    }
    // COUNT / SUM / AVG over a column value.
    ++non_null_args;
    switch (item.func) {
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (PhysicalTypeOf(col.type()) == PhysicalType::kInt) {
          sum_i += col.IntAt(row);
          sum_d += static_cast<double>(col.IntAt(row));
        } else if (PhysicalTypeOf(col.type()) == PhysicalType::kDouble) {
          sum_d += col.DoubleAt(row);
        }
        break;
      case AggFunc::kCountStar:
      case AggFunc::kCount:
      case AggFunc::kMin:
      case AggFunc::kMax:
        break;  // count needs no value; min/max handled above
    }
  }

  void AccumulateNonDistinct(AggFunc func, const Value& v) {
    ++non_null_args;
    switch (func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        sum_i += PhysicalTypeOf(v.type()) == PhysicalType::kInt ? v.int_value()
                                                                : 0;
        sum_d += v.AsDouble();
        break;
      case AggFunc::kMin:
        if (!has_minmax || v.Compare(minmax) < 0) {
          minmax = v;
          has_minmax = true;
        }
        break;
      case AggFunc::kMax:
        if (!has_minmax || v.Compare(minmax) > 0) {
          minmax = v;
          has_minmax = true;
        }
        break;
    }
  }

  /// Folds another partial state for the same (group, aggregate) into this
  /// one — the combine step of parallel partial aggregation. Valid only
  /// before Finalize. Counters and sums add; MIN/MAX keeps the winner under
  /// `item.func`; DISTINCT sets union (still un-folded, so merged partials
  /// finalize exactly like a serially-built state).
  void Merge(const AggregateItem& item, AggState&& other) {
    mask_rows += other.mask_rows;
    non_null_args += other.non_null_args;
    sum_i += other.sum_i;
    sum_d += other.sum_d;
    if (other.has_minmax) {
      if (!has_minmax) {
        minmax = std::move(other.minmax);
        has_minmax = true;
      } else if (item.func == AggFunc::kMin
                     ? other.minmax.Compare(minmax) < 0
                     : other.minmax.Compare(minmax) > 0) {
        minmax = std::move(other.minmax);
      }
    }
    if (!other.distinct.empty()) {
      if (distinct.empty()) {
        distinct = std::move(other.distinct);
      } else {
        distinct.merge(other.distinct);
      }
    }
  }

  /// Final value under SQL semantics: COUNT never NULL; SUM/AVG/MIN/MAX are
  /// NULL when no rows contributed.
  Value Finalize(const AggregateItem& item) {
    if (item.distinct) FoldDistinct(item);
    DataType out_type = item.result_type();
    switch (item.func) {
      case AggFunc::kCountStar:
        return Value::Int64(mask_rows);
      case AggFunc::kCount:
        return Value::Int64(non_null_args);
      case AggFunc::kSum:
        if (non_null_args == 0) return Value::Null(out_type);
        return out_type == DataType::kFloat64 ? Value::Float64(sum_d)
                                              : Value::Int64(sum_i);
      case AggFunc::kAvg:
        if (non_null_args == 0) return Value::Null(out_type);
        return Value::Float64(sum_d / static_cast<double>(non_null_args));
      case AggFunc::kMin:
      case AggFunc::kMax:
        if (!has_minmax) return Value::Null(out_type);
        return minmax;
    }
    return Value::Null(out_type);
  }

 private:
  void FoldDistinct(const AggregateItem& item) {
    for (const Value& v : distinct) {
      AccumulateNonDistinct(item.func, v);
    }
    distinct.clear();
  }
};

/// Rough per-state heap footprint for the memory metric.
inline int64_t AggStateBytes(const AggState& s) {
  return 64 + static_cast<int64_t>(s.distinct.size()) * 48;
}

}  // namespace fusiondb

#endif  // FUSIONDB_EXEC_AGG_STATE_H_
