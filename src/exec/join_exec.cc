// Hash join (inner / left / semi / cross). The build side (right input) is
// fully buffered and accounted against the working-memory metric. A join
// without equi keys (cross, or non-equi conditions only) keys every build row
// on the empty key, so each probe row walks all build rows: the nested loop.
#include <optional>

#include "exec/keyed_table.h"
#include "exec/operators_internal.h"
#include "expr/evaluator.h"
#include "expr/simplifier.h"

namespace fusiondb::internal {

namespace {

class HashJoinExec final : public ExecOperator {
 public:
  HashJoinExec(const JoinOp& op, ExecOperatorPtr left, ExecOperatorPtr right,
               std::vector<int> left_keys, std::vector<int> right_keys,
               std::optional<BoundExpr> residual, ExecContext* ctx)
      : ExecOperator(op.schema()),
        join_type_(op.join_type()),
        left_(std::move(left)),
        right_(std::move(right)),
        residual_(std::move(residual)),
        ctx_(ctx),
        left_key_indexes_(std::move(left_keys)),
        right_key_indexes_(std::move(right_keys)),
        op_id_(ctx->building_op()) {}

  ~HashJoinExec() override { ctx_->AddHashBytes(-accounted_bytes_, op_id_); }

  Result<std::optional<Chunk>> Next() override {
    if (!built_) {
      FUSIONDB_RETURN_IF_ERROR(BuildRight());
      built_ = true;
    }
    while (true) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> in, left_->Next());
      if (!in.has_value()) return std::optional<Chunk>();
      Chunk out = Chunk::Empty(OutputTypes());
      ProbeChunk(*in, &out);
      if (out.num_rows() == 0) continue;
      return std::optional<Chunk>(std::move(out));
    }
  }

 private:
  Status BuildRight() {
    right_data_ = Chunk::Empty(right_->OutputTypes());
    while (true) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> in, right_->Next());
      if (!in.has_value()) break;
      right_data_.AppendChunk(*in);
    }
    size_t n = right_data_.num_rows();
    // Each key id chains its build rows in ascending order: head_[id] is the
    // first, next_[row] the one after. next_ holds the row's key id until
    // the backward pass below threads the chains.
    std::vector<const Column*> cols =
        KeyColumns(right_data_, right_key_indexes_);
    next_.assign(n, kNoRow);
    for (size_t r = 0; r < n; ++r) {
      if (KeyedHashTable::AnyNull(cols, r)) continue;  // NULL keys never join
      next_[r] = table_.Insert(cols, r).id;
    }
    head_.assign(table_.size(), kNoRow);
    for (size_t r = n; r-- > 0;) {
      uint32_t id = next_[r];
      if (id == kNoRow) continue;
      next_[r] = head_[id];
      head_[id] = static_cast<uint32_t>(r);
    }
    int64_t bytes = table_.ByteSize() +
                    static_cast<int64_t>((head_.capacity() + next_.capacity()) *
                                         sizeof(uint32_t));
    for (const Column& c : right_data_.columns) bytes += c.ByteSize();
    accounted_bytes_ = bytes;
    ctx_->AddHashBytes(bytes, op_id_);
    return Status::OK();
  }

  bool PairPasses(const Chunk& left_chunk, size_t lrow, size_t rrow) const {
    if (!residual_.has_value()) return true;
    Value v = residual_->EvalRowPair(left_chunk, lrow, right_data_, rrow,
                                     left_->schema().num_columns());
    return !v.is_null() && v.bool_value();
  }

  // Sentinel right-row index: the end of a row chain, and in the output
  // pairs "no match", where the row carries the left columns plus NULL right
  // columns (left outer join).
  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// Matching stays row-at-a-time (key encode + residual EvalRowPair over
  /// candidate pairs), but row assembly is deferred: the probe loop only
  /// records (left row, right row) index pairs in emission order, and the
  /// output columns are built afterwards with bulk gathers.
  void ProbeChunk(const Chunk& in, Chunk* out) {
    size_t rows = in.num_rows();
    std::vector<uint32_t> lrows;
    std::vector<uint32_t> rrows;
    bool any_null_right = false;
    std::vector<const Column*> cols = KeyColumns(in, left_key_indexes_);
    for (size_t r = 0; r < rows; ++r) {
      bool matched = false;
      uint32_t id = KeyedHashTable::AnyNull(cols, r) ? KeyedHashTable::kNoId
                                                     : table_.Find(cols, r);
      uint32_t m = id == KeyedHashTable::kNoId ? kNoRow : head_[id];
      for (; m != kNoRow; m = next_[m]) {
        if (!PairPasses(in, r, m)) continue;
        matched = true;
        lrows.push_back(static_cast<uint32_t>(r));
        rrows.push_back(m);
        if (join_type_ == JoinType::kSemi) break;
      }
      if (!matched && join_type_ == JoinType::kLeft) {
        lrows.push_back(static_cast<uint32_t>(r));
        rrows.push_back(kNoRow);
        any_null_right = true;
      }
    }
    if (lrows.empty()) return;
    size_t lw = in.num_columns();
    for (size_t c = 0; c < lw; ++c) {
      out->columns[c] = in.columns[c].Gather(lrows.data(), lrows.size());
    }
    if (join_type_ == JoinType::kSemi) return;
    for (size_t c = 0; c < right_data_.num_columns(); ++c) {
      const Column& src = right_data_.columns[c];
      Column& dst = out->columns[lw + c];
      if (!any_null_right) {
        dst = src.Gather(rrows.data(), rrows.size());
        continue;
      }
      dst.Reserve(rrows.size());
      for (uint32_t m : rrows) {
        if (m == kNoRow) {
          dst.AppendNull();
        } else {
          dst.AppendFrom(src, m);
        }
      }
    }
  }

  JoinType join_type_;
  ExecOperatorPtr left_;
  ExecOperatorPtr right_;
  std::optional<BoundExpr> residual_;
  ExecContext* ctx_;

  std::vector<int> left_key_indexes_;
  std::vector<int> right_key_indexes_;
  Chunk right_data_;
  KeyedHashTable table_;
  std::vector<uint32_t> head_;  // per key id: first build row
  std::vector<uint32_t> next_;  // per build row: next row with its key
  bool built_ = false;
  int64_t accounted_bytes_ = 0;
  int32_t op_id_ = -1;
};

}  // namespace

Result<ExecOperatorPtr> MakeJoinExec(const JoinOp& op, ExecOperatorPtr left,
                                     ExecOperatorPtr right, ExecContext* ctx) {
  if (op.condition() == nullptr) {
    return Status::PlanError("join with null condition");
  }
  // Split the condition into hashable equi pairs and a bound residual.
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(op.condition(), &conjuncts);
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  std::vector<ExprPtr> residual_parts;
  const Schema& ls = left->schema();
  const Schema& rs = right->schema();
  for (const ExprPtr& c : conjuncts) {
    bool is_equi = false;
    if (c->kind() == ExprKind::kCompare && c->compare_op() == CompareOp::kEq &&
        c->child(0)->kind() == ExprKind::kColumnRef &&
        c->child(1)->kind() == ExprKind::kColumnRef) {
      ColumnId a = c->child(0)->column_id();
      ColumnId b = c->child(1)->column_id();
      // Keys hash on serialized bytes, so both sides must share a physical
      // representation; mismatched pairs fall back to the residual path.
      auto same_phys = [&](ColumnId l, ColumnId r) {
        return PhysicalTypeOf(*ls.TypeOf(l)) == PhysicalTypeOf(*rs.TypeOf(r));
      };
      if (!(ls.Contains(a) && rs.Contains(b))) std::swap(a, b);
      if (ls.Contains(a) && rs.Contains(b) && same_phys(a, b)) {
        left_keys.push_back(ls.IndexOf(a));
        right_keys.push_back(rs.IndexOf(b));
        is_equi = true;
      }
    }
    if (!is_equi) residual_parts.push_back(c);
  }
  std::optional<BoundExpr> residual;
  if (!residual_parts.empty()) {
    ExprPtr residual_expr = CombineConjuncts(residual_parts);
    // Bind against the combined left+right schema (EvalRowPair splits at the
    // left width), including for semi joins whose *output* lacks right
    // columns.
    std::vector<ColumnInfo> combined = ls.columns();
    for (const ColumnInfo& c : rs.columns()) combined.push_back(c);
    FUSIONDB_ASSIGN_OR_RETURN(BoundExpr bound,
                              BindExpr(residual_expr, Schema(combined)));
    residual = std::move(bound);
  }
  if (op.join_type() == JoinType::kCross && (!left_keys.empty() || residual)) {
    return Status::PlanError("cross join must have TRUE condition");
  }
  return ExecOperatorPtr(new HashJoinExec(
      op, std::move(left), std::move(right), std::move(left_keys),
      std::move(right_keys), std::move(residual), ctx));
}

}  // namespace fusiondb::internal
