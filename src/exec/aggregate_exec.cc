// Hash aggregation (with per-aggregate masks and DISTINCT) and partitioned
// window aggregation. The binding and accumulation core
// (BoundAgg/MaskSet/BindAggs, AggGroups, AccumulateView, merge/finalize) is
// shared with the compiled-pipeline aggregate sink — see exec/agg_build.h.
// Both key their rows through exec/keyed_table.h (via AggGroups).
#include <optional>

#include "exec/agg_build.h"
#include "exec/agg_state.h"
#include "exec/operators_internal.h"
#include "expr/evaluator.h"
#include "expr/simplifier.h"

namespace fusiondb::internal {

namespace {

class AggregateExec final : public ExecOperator {
 public:
  AggregateExec(const AggregateOp& op, ExecOperatorPtr child,
                std::vector<int> group_indexes, BoundAggs aggs,
                ExecContext* ctx)
      : ExecOperator(op.schema()),
        scalar_(op.IsScalar()),
        child_(std::move(child)),
        group_indexes_(std::move(group_indexes)),
        aggs_(std::move(aggs.aggs)),
        mask_set_(std::move(aggs.mask_set)),
        ctx_(ctx),
        op_id_(ctx->building_op()) {}

  ~AggregateExec() override { ctx_->AddHashBytes(-accounted_bytes_, op_id_); }

  Result<std::optional<Chunk>> Next() override {
    if (done_) return std::optional<Chunk>();
    done_ = true;
    FUSIONDB_RETURN_IF_ERROR(Drain());
    return std::optional<Chunk>(FinalizeGroups(&groups_, aggs_, OutputTypes(),
                                               group_indexes_.size()));
  }

 private:
  /// Accumulates every row of `in` into `groups` via the shared view-based
  /// core: masks evaluate once per chunk, expression-valued arguments
  /// evaluate once column-at-a-time, bare-column arguments read the input
  /// column directly.
  void AccumulateChunk(const Chunk& in, AggGroups* groups) {
    if (in.num_rows() == 0) return;
    std::vector<Column> expr_args;
    AccumulateView(ChunkView(in, group_indexes_, aggs_, mask_set_, &expr_args),
                   aggs_, groups);
  }

  /// Serial: chunks accumulate into `groups_` as they arrive. Parallel: the
  /// calling thread drains the child (Next() is not thread-safe) and the
  /// buffered chunks are dealt to worker partials by stride
  /// (AccumulatePartials). Only the final table is charged to the memory
  /// metric.
  Status Drain() {
    std::vector<Chunk> buffered;
    while (true) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> in, child_->Next());
      if (!in.has_value()) break;
      if (ctx_->pool() == nullptr) {
        AccumulateChunk(*in, &groups_);
      } else if (in->num_rows() > 0) {
        buffered.push_back(std::move(*in));
      }
    }
    if (ctx_->pool() != nullptr) {
      FUSIONDB_RETURN_IF_ERROR(AccumulatePartials(
          ctx_, buffered.size(), aggs_,
          [&](size_t i, AggGroups* part) {
            AccumulateChunk(buffered[i], part);
          },
          &groups_));
    }
    if (scalar_) groups_.SeedScalar(aggs_.size());
    accounted_bytes_ = groups_.ByteSize();
    ctx_->AddHashBytes(accounted_bytes_, op_id_);
    return Status::OK();
  }

  bool scalar_;
  ExecOperatorPtr child_;
  std::vector<int> group_indexes_;
  std::vector<BoundAgg> aggs_;
  MaskSet mask_set_;
  ExecContext* ctx_;
  AggGroups groups_;
  bool done_ = false;
  int64_t accounted_bytes_ = 0;
  int32_t op_id_ = -1;
};

class WindowExec final : public ExecOperator {
 public:
  WindowExec(const WindowOp& op, ExecOperatorPtr child,
             std::vector<int> partition_indexes, BoundAggs items,
             std::vector<AggregateItem> item_storage, ExecContext* ctx)
      : ExecOperator(op.schema()),
        child_(std::move(child)),
        partition_indexes_(std::move(partition_indexes)),
        items_(std::move(items.aggs)),
        mask_set_(std::move(items.mask_set)),
        item_storage_(std::move(item_storage)),
        ctx_(ctx),
        op_id_(ctx->building_op()) {}

  ~WindowExec() override { ctx_->AddHashBytes(-accounted_bytes_, op_id_); }

  Result<std::optional<Chunk>> Next() override {
    if (!materialized_) {
      FUSIONDB_RETURN_IF_ERROR(Materialize());
      materialized_ = true;
    }
    size_t total = data_.num_rows();
    if (offset_ >= total) return std::optional<Chunk>();
    size_t take = std::min(ctx_->chunk_size(), total - offset_);
    Chunk out = Chunk::Empty(OutputTypes());
    size_t input_width = data_.num_columns();
    for (size_t c = 0; c < input_width; ++c) {
      out.columns[c].AppendRange(data_.columns[c], offset_, take);
    }
    for (size_t a = 0; a < items_.size(); ++a) {
      out.columns[input_width + a].Reserve(take);
      for (size_t r = offset_; r < offset_ + take; ++r) {
        out.columns[input_width + a].AppendValue(results_[a][r]);
      }
    }
    offset_ += take;
    return std::optional<Chunk>(std::move(out));
  }

 private:
  Status Materialize() {
    data_ = Chunk::Empty(child_->OutputTypes());
    while (true) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> in, child_->Next());
      if (!in.has_value()) break;
      data_.AppendChunk(*in);
    }
    size_t rows = data_.num_rows();

    // Partition rows and accumulate each partition's items exactly as a
    // grouped aggregate over the partition keys would, then broadcast each
    // partition's finalized values to its member rows.
    std::vector<Column> expr_args;
    AggGroups partitions;
    std::vector<uint32_t> row_ids = AccumulateView(
        ChunkView(data_, partition_indexes_, items_, mask_set_, &expr_args),
        items_, &partitions);
    results_.assign(items_.size(), std::vector<Value>(rows));
    std::vector<Value> finalized(partitions.entries.size());
    for (size_t a = 0; a < items_.size(); ++a) {
      const AggregateItem& item = *items_[a].item;
      for (size_t p = 0; p < finalized.size(); ++p) {
        finalized[p] = partitions.entries[p].states[a].Finalize(item);
      }
      for (size_t r = 0; r < rows; ++r) results_[a][r] = finalized[row_ids[r]];
    }

    int64_t bytes = 0;
    for (const Column& c : data_.columns) bytes += c.ByteSize();
    bytes += partitions.ByteSize();
    accounted_bytes_ = bytes;
    ctx_->AddHashBytes(bytes, op_id_);
    return Status::OK();
  }

  ExecOperatorPtr child_;
  std::vector<int> partition_indexes_;
  std::vector<BoundAgg> items_;
  MaskSet mask_set_;
  // WindowItems converted to AggregateItems so BoundAgg/AggState apply.
  std::vector<AggregateItem> item_storage_;
  ExecContext* ctx_;
  Chunk data_;
  std::vector<std::vector<Value>> results_;
  bool materialized_ = false;
  size_t offset_ = 0;
  int64_t accounted_bytes_ = 0;
  int32_t op_id_ = -1;
};

}  // namespace

Result<ExecOperatorPtr> MakeAggregateExec(const AggregateOp& op,
                                          ExecOperatorPtr child,
                                          ExecContext* ctx) {
  std::vector<int> group_indexes;
  group_indexes.reserve(op.group_by().size());
  for (ColumnId g : op.group_by()) {
    int idx = child->schema().IndexOf(g);
    if (idx < 0) {
      return Status::PlanError("group-by column #" + std::to_string(g) +
                               " not in input");
    }
    group_indexes.push_back(idx);
  }
  FUSIONDB_ASSIGN_OR_RETURN(BoundAggs aggs,
                            BindAggs(op.aggregates(), child->schema()));
  return ExecOperatorPtr(new AggregateExec(op, std::move(child),
                                           std::move(group_indexes),
                                           std::move(aggs), ctx));
}

Result<ExecOperatorPtr> MakeWindowExec(const WindowOp& op,
                                       ExecOperatorPtr child,
                                       ExecContext* ctx) {
  std::vector<int> partition_indexes;
  partition_indexes.reserve(op.partition_by().size());
  for (ColumnId p : op.partition_by()) {
    int idx = child->schema().IndexOf(p);
    if (idx < 0) {
      return Status::PlanError("window partition column #" + std::to_string(p) +
                               " not in input");
    }
    partition_indexes.push_back(idx);
  }
  // Reuse the aggregate machinery by viewing WindowItems as AggregateItems.
  std::vector<AggregateItem> storage;
  storage.reserve(op.items().size());
  for (const WindowItem& w : op.items()) {
    storage.push_back({w.id, w.name, w.func, w.arg, w.mask, /*distinct=*/false});
  }
  FUSIONDB_ASSIGN_OR_RETURN(BoundAggs items,
                            BindAggs(storage, child->schema()));
  // BoundAgg keeps pointers into `storage`; both are moved into the operator
  // together, and vector moves preserve element addresses.
  return ExecOperatorPtr(new WindowExec(op, std::move(child),
                                        std::move(partition_indexes),
                                        std::move(items), std::move(storage),
                                        ctx));
}

}  // namespace fusiondb::internal
