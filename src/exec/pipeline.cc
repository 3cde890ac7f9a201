// CompiledPipeline: the push-based fused execution of one
// scan→filter→project(→aggregate) chain. See exec/pipeline.h and
// DESIGN.md §13 for the compilation model; the invariant maintained
// throughout this file is BYTE-IDENTITY with the interpreted operators —
// same rendered rows in the same order, same metrics, same memory
// accounting — for any optimizer mode and any thread count. Every loop here
// mirrors an interpreted discipline: filters chain selection vectors the
// way FilterExec gathers, outputs evaluate through the same typed kernels
// ProjectExec binds, and the aggregate sink reuses the exact accumulate /
// deal / merge order of AggregateExec (exec/agg_build.h).
#include "exec/pipeline.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/agg_build.h"
#include "exec/morsel_source.h"
#include "exec/operators_internal.h"
#include "expr/column_map.h"
#include "expr/evaluator.h"

namespace fusiondb::internal {

namespace {

std::string LowerKindName(OpKind kind) {
  std::string s = OpKindName(kind);
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

/// Positions (indexes into `base`) of the rows of `subset`. Both are
/// ascending and subset ⊆ base, so one linear merge converts a selection in
/// morsel coordinates into the dense coordinates of the filtered rows —
/// exactly the mask selection MaskSet::Evaluate would produce over the
/// gathered chunk the interpreted path materializes.
SelVector PositionsIn(const SelVector& subset, const SelVector& base) {
  SelVector out;
  out.reserve(subset.size());
  size_t bi = 0;
  for (uint32_t v : subset) {
    while (base[bi] != v) ++bi;
    out.push_back(static_cast<uint32_t>(bi));
    ++bi;
  }
  return out;
}

/// Everything TryCompilePipeline derives from the chain, handed to the
/// operator. All expressions are composed down to (and bound against) the
/// scan schema, so the pipeline evaluates them straight off decoded morsels.
struct PipelineSpec {
  std::vector<BoundExpr> filters;  // chain order, bottom-most filter first

  // Non-aggregate chains: one output expression per root schema column.
  std::vector<BoundExpr> outputs;
  bool identity = false;  // outputs are the scan's columns in scan order

  // Aggregate chains (the aggregate is always the chain root).
  bool aggregate = false;
  bool scalar = false;
  std::vector<BoundExpr> group_exprs;
  BoundAggs baggs;
  // Rewritten AggregateItems the BoundAggs point into (vector moves keep
  // element addresses, the WindowExec item_storage pattern).
  std::vector<AggregateItem> item_storage;
};

/// One morsel's aggregate input, evaluated to dense columns: what the
/// interpreted path would see as the filtered+projected chunk, without ever
/// building that chunk. `view` points into `columns` (group columns, then
/// argument columns); moving the struct keeps the column buffers in place.
struct PreparedAggChunk {
  std::vector<Column> columns;
  AggInputView view;
};

class PipelineExec final : public ExecOperator {
 public:
  PipelineExec(const ScanOp& scan, PipelineSpec spec, Schema schema,
               ExecContext* ctx, int32_t root_op_id, int32_t scan_op_id)
      : ExecOperator(std::move(schema)),
        ctx_(ctx),
        root_op_id_(root_op_id),
        source_(scan, ctx, scan_op_id),
        spec_(std::move(spec)) {}

  ~PipelineExec() override {
    if (accounted_bytes_ != 0) {
      ctx_->AddHashBytes(-accounted_bytes_, root_op_id_);
    }
  }

  Result<std::optional<Chunk>> Next() override {
    if (spec_.aggregate) return NextAggregate();
    if (ctx_->pool() != nullptr) {
      if (!parallel_ran_) {
        FUSIONDB_RETURN_IF_ERROR(RunParallel());
        parallel_ran_ = true;
      }
      if (out_cursor_ >= out_chunks_.size()) return std::optional<Chunk>();
      Chunk out = std::move(out_chunks_[out_cursor_++]);
      return std::optional<Chunk>(std::move(out));
    }
    // Serial push loop: each decoded morsel runs filter → output in place;
    // morsels with no survivors never materialize anything.
    while (true) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> morsel,
                                source_.NextSerial());
      if (!morsel.has_value()) return std::optional<Chunk>();
      SelVector sel;
      if (!ApplyFilters(*morsel, &sel)) continue;
      return std::optional<Chunk>(BuildOutput(std::move(*morsel), sel));
    }
  }

 private:
  /// Chains the fused filters over one morsel: the first evaluates as a
  /// fresh selection, the rest narrow it (visiting only survivors — the
  /// fused equivalent of each FilterExec gathering before the next).
  /// Returns false when no row survives.
  bool ApplyFilters(const Chunk& morsel, SelVector* sel) const {
    if (spec_.filters.empty()) return morsel.num_rows() > 0;
    *sel = spec_.filters[0].EvalFilter(morsel);
    for (size_t i = 1; i < spec_.filters.size() && !sel->empty(); ++i) {
      spec_.filters[i].NarrowFilter(morsel, sel);
    }
    return !sel->empty();
  }

  bool AllPass(const Chunk& morsel, const SelVector& sel) const {
    return spec_.filters.empty() || sel.size() == morsel.num_rows();
  }

  /// Emits the chain's output chunk for one morsel. When every row passes
  /// and the chain is an identity over the scan, the decoded columns move
  /// through untouched (FilterExec's pass-through). Otherwise each output
  /// expression evaluates over the morsel — dense, or via EvalSel so only
  /// surviving rows are computed.
  Chunk BuildOutput(Chunk morsel, const SelVector& sel) const {
    bool all = AllPass(morsel, sel);
    Chunk out;
    if (all && spec_.identity) {
      out.columns = std::move(morsel.columns);
      return out;
    }
    out.columns.reserve(spec_.outputs.size());
    for (const BoundExpr& e : spec_.outputs) {
      out.columns.push_back(all ? e.EvalAll(morsel) : e.EvalSel(morsel, sel));
    }
    return out;
  }

  /// Parallel non-aggregate run: workers filter and project their claimed
  /// partitions' morsels inside the scan's ParallelFor; outputs stream in
  /// (partition, slice) order — the exact chunk sequence the interpreted
  /// pull chain produces over a parallel scan.
  Status RunParallel() {
    std::vector<std::vector<Chunk>> per_partition(source_.num_partitions());
    FUSIONDB_RETURN_IF_ERROR(source_.ParallelPartitions(
        [&](size_t /*worker*/, size_t pi, std::vector<Chunk> slices) -> Status {
          std::vector<Chunk>& out = per_partition[pi];
          for (Chunk& morsel : slices) {
            SelVector sel;
            if (!ApplyFilters(morsel, &sel)) continue;
            out.push_back(BuildOutput(std::move(morsel), sel));
          }
          return Status::OK();
        }));
    for (std::vector<Chunk>& chunks : per_partition) {
      for (Chunk& c : chunks) out_chunks_.push_back(std::move(c));
    }
    return Status::OK();
  }

  // --- aggregate sink --------------------------------------------------------

  Result<std::optional<Chunk>> NextAggregate() {
    if (done_) return std::optional<Chunk>();
    done_ = true;
    if (ctx_->pool() != nullptr) {
      FUSIONDB_RETURN_IF_ERROR(RunAggParallel());
    } else {
      FUSIONDB_RETURN_IF_ERROR(RunAggSerial());
    }
    if (spec_.scalar) groups_.SeedScalar(spec_.baggs.aggs.size());
    accounted_bytes_ = groups_.ByteSize();
    ctx_->AddHashBytes(accounted_bytes_, root_op_id_);
    return std::optional<Chunk>(FinalizeGroups(&groups_, spec_.baggs.aggs,
                                               OutputTypes(),
                                               spec_.group_exprs.size()));
  }

  /// Evaluates the deduplicated mask conjuncts over the *surviving* rows
  /// only (NarrowFilter from the filter chain's selection) and converts each
  /// to dense coordinates; masks then intersect exactly as
  /// MaskSet::Evaluate does over a materialized chunk.
  std::vector<SelVector> EvalMasksNarrowed(const Chunk& morsel,
                                           const SelVector& base) const {
    const MaskSet& ms = spec_.baggs.mask_set;
    std::vector<SelVector> conjunct_sels;
    conjunct_sels.reserve(ms.conjuncts.size());
    for (const BoundExpr& c : ms.conjuncts) {
      SelVector narrowed = base;
      c.NarrowFilter(morsel, &narrowed);
      conjunct_sels.push_back(PositionsIn(narrowed, base));
    }
    return ms.Combine(conjunct_sels, base.size());
  }

  /// Evaluates one surviving morsel's group / argument / mask inputs to
  /// dense columns. When every row passed the filters this takes the same
  /// EvalAll + MaskSet::Evaluate path the interpreted aggregate takes over
  /// its input chunk; otherwise EvalSel computes surviving rows only.
  PreparedAggChunk Prepare(const Chunk& morsel, const SelVector& sel) const {
    const bool filtered = !AllPass(morsel, sel);
    auto eval = [&](const BoundExpr& e) {
      return filtered ? e.EvalSel(morsel, sel) : e.EvalAll(morsel);
    };
    const std::vector<BoundAgg>& aggs = spec_.baggs.aggs;
    PreparedAggChunk p;
    p.columns.reserve(spec_.group_exprs.size() + aggs.size());
    AggInputView& view = p.view;
    view.rows = filtered ? sel.size() : morsel.num_rows();
    view.masks = filtered ? EvalMasksNarrowed(morsel, sel)
                          : spec_.baggs.mask_set.Evaluate(morsel);
    for (const BoundExpr& g : spec_.group_exprs) {
      view.group_cols.push_back(&p.columns.emplace_back(eval(g)));
    }
    view.arg_cols.resize(aggs.size(), nullptr);
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].arg.has_value()) {
        view.arg_cols[a] = &p.columns.emplace_back(eval(*aggs[a].arg));
      }
    }
    return p;
  }

  Status RunAggSerial() {
    while (true) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> morsel,
                                source_.NextSerial());
      if (!morsel.has_value()) break;
      SelVector sel;
      if (!ApplyFilters(*morsel, &sel)) continue;
      AccumulateView(Prepare(*morsel, sel).view, spec_.baggs.aggs, &groups_);
    }
    return Status::OK();
  }

  /// Parallel aggregate: phase 1 filters and prepares surviving morsels
  /// inside the scan's ParallelFor, kept in (partition, slice) order — the
  /// same sequence of nonempty chunks AggregateExec::Drain buffers
  /// from its child. Phase 2 deals morsel i to partial i mod W and merges
  /// partials in worker order, so the group table (id order included)
  /// is identical to the interpreted build for the same thread count.
  Status RunAggParallel() {
    std::vector<std::vector<PreparedAggChunk>> per_partition(
        source_.num_partitions());
    FUSIONDB_RETURN_IF_ERROR(source_.ParallelPartitions(
        [&](size_t /*worker*/, size_t pi, std::vector<Chunk> slices) -> Status {
          std::vector<PreparedAggChunk>& out = per_partition[pi];
          for (Chunk& morsel : slices) {
            SelVector sel;
            if (!ApplyFilters(morsel, &sel)) continue;
            out.push_back(Prepare(morsel, sel));
          }
          return Status::OK();
        }));
    std::vector<PreparedAggChunk> prepared;
    for (std::vector<PreparedAggChunk>& chunks : per_partition) {
      for (PreparedAggChunk& p : chunks) prepared.push_back(std::move(p));
    }
    return AccumulatePartials(
        ctx_, prepared.size(), spec_.baggs.aggs,
        [&](size_t i, AggGroups* part) {
          AccumulateView(prepared[i].view, spec_.baggs.aggs, part);
        },
        &groups_);
  }

  ExecContext* ctx_;
  int32_t root_op_id_ = -1;
  MorselSource source_;
  PipelineSpec spec_;
  // Parallel non-aggregate state: chunks prepared by RunParallel, streamed
  // in order.
  bool parallel_ran_ = false;
  std::vector<Chunk> out_chunks_;
  size_t out_cursor_ = 0;
  // Aggregate state.
  AggGroups groups_;
  bool done_ = false;
  int64_t accounted_bytes_ = 0;
};

}  // namespace

Result<ExecOperatorPtr> TryCompilePipeline(const PlanPtr& plan,
                                           ExecContext* ctx,
                                           int32_t root_op_id) {
  auto fallback = [&](std::string reason) -> Result<ExecOperatorPtr> {
    PipelineRecord rec;
    rec.root_op_id = root_op_id;
    rec.root_kind = OpKindName(plan->kind());
    rec.fallback = std::move(reason);
    ctx->AddPipeline(std::move(rec));
    return ExecOperatorPtr(nullptr);
  };

  // Walk the chain: the root (Filter/Project/Aggregate), any run of
  // Filter/Project below it, and the node the chain bottoms out at. Only a
  // chain grounded directly on a scan compiles; anything else (a join
  // build, another aggregate, a spool, ...) is a pipeline breaker and the
  // chain falls back with a source-<kind> reason.
  std::vector<const LogicalOp*> chain;
  chain.push_back(plan.get());
  const LogicalOp* bottom = plan->child(0).get();
  while (bottom->kind() == OpKind::kFilter ||
         bottom->kind() == OpKind::kProject) {
    chain.push_back(bottom);
    bottom = bottom->child(0).get();
  }
  if (bottom->kind() != OpKind::kScan) {
    return fallback("source-" + LowerKindName(bottom->kind()));
  }
  const ScanOp& scan = Cast<ScanOp>(*bottom);
  const Schema& scan_schema = scan.schema();

  // Compose every chain expression down to the scan schema, walking bottom
  // up. `env` maps each visible column id to its defining expression over
  // the scan (identity at the scan itself); projects replace the
  // environment, filters evaluate in the environment current at their
  // depth. A reference SubstituteColumns cannot resolve, or a composed
  // expression the binder rejects, is a bind-error fallback — the
  // interpreted chain then either runs it or raises the real error.
  ColumnDefs env;
  for (const ColumnInfo& c : scan_schema.columns()) {
    env[c.id] = Expr::MakeColumnRef(c.id, c.type);
  }
  PipelineSpec spec;
  for (size_t i = chain.size(); i-- > 0;) {
    const LogicalOp* node = chain[i];
    if (node->kind() == OpKind::kFilter) {
      ExprPtr composed = SubstituteColumns(env, Cast<FilterOp>(*node).predicate());
      if (composed == nullptr) return fallback("bind-error");
      Result<BoundExpr> bound = BindExpr(composed, scan_schema);
      if (!bound.ok()) return fallback("bind-error");
      spec.filters.push_back(std::move(bound).ValueOrDie());
    } else if (node->kind() == OpKind::kProject) {
      ColumnDefs next;
      for (const NamedExpr& e : Cast<ProjectOp>(*node).exprs()) {
        ExprPtr composed = SubstituteColumns(env, e.expr);
        if (composed == nullptr) return fallback("bind-error");
        next[e.id] = std::move(composed);
      }
      env = std::move(next);
    }
  }

  if (plan->kind() == OpKind::kAggregate) {
    const AggregateOp& agg = Cast<AggregateOp>(*plan);
    spec.aggregate = true;
    spec.scalar = agg.IsScalar();
    spec.group_exprs.reserve(agg.group_by().size());
    for (ColumnId g : agg.group_by()) {
      auto it = env.find(g);
      if (it == env.end()) return fallback("bind-error");
      Result<BoundExpr> bound = BindExpr(it->second, scan_schema);
      if (!bound.ok()) return fallback("bind-error");
      spec.group_exprs.push_back(std::move(bound).ValueOrDie());
    }
    spec.item_storage.reserve(agg.aggregates().size());
    for (const AggregateItem& item : agg.aggregates()) {
      AggregateItem rewritten = item;
      if (item.arg != nullptr) {
        rewritten.arg = SubstituteColumns(env, item.arg);
        if (rewritten.arg == nullptr) return fallback("bind-error");
      }
      if (item.mask != nullptr) {
        rewritten.mask = SubstituteColumns(env, item.mask);
        if (rewritten.mask == nullptr) return fallback("bind-error");
      }
      spec.item_storage.push_back(std::move(rewritten));
    }
    Result<BoundAggs> baggs = BindAggs(spec.item_storage, scan_schema);
    if (!baggs.ok()) return fallback("bind-error");
    spec.baggs = std::move(baggs).ValueOrDie();
  } else {
    const Schema& out_schema = plan->schema();
    spec.outputs.reserve(out_schema.num_columns());
    spec.identity = out_schema.num_columns() == scan_schema.num_columns();
    for (size_t i = 0; i < out_schema.num_columns(); ++i) {
      auto it = env.find(out_schema.column(i).id);
      if (it == env.end()) return fallback("bind-error");
      if (spec.identity && (it->second->kind() != ExprKind::kColumnRef ||
                            it->second->column_id() !=
                                scan_schema.column(i).id)) {
        spec.identity = false;
      }
      Result<BoundExpr> bound = BindExpr(it->second, scan_schema);
      if (!bound.ok()) return fallback("bind-error");
      spec.outputs.push_back(std::move(bound).ValueOrDie());
    }
  }

  // Compilation succeeded — only now touch shared executor state. Interior
  // slots register in the same preorder the interpreted build would use
  // (root's child first, scan last), each tagged with this pipeline's
  // index; the scan's slot keeps receiving decoded-bytes attribution
  // through MorselSource.
  const int32_t pipe_index = static_cast<int32_t>(ctx->pipelines().size());
  int32_t scan_slot = -1;
  if (ctx->profile_enabled()) {
    ctx->op_stats(root_op_id)->pipeline = pipe_index;
    int32_t parent = root_op_id;
    for (size_t i = 1; i < chain.size(); ++i) {
      int32_t id = ctx->RegisterOperator(OpKindName(chain[i]->kind()),
                                         NodeDetail(*chain[i]), parent);
      ctx->op_stats(id)->pipeline = pipe_index;
      parent = id;
    }
    scan_slot =
        ctx->RegisterOperator(OpKindName(OpKind::kScan), NodeDetail(*bottom),
                              parent);
    ctx->op_stats(scan_slot)->pipeline = pipe_index;
  }
  PipelineRecord rec;
  rec.root_op_id = root_op_id;
  rec.root_kind = OpKindName(plan->kind());
  rec.ops_fused = static_cast<int>(chain.size()) + 1;  // chain + the scan
  ctx->AddPipeline(std::move(rec));
  return ExecOperatorPtr(new PipelineExec(scan, std::move(spec),
                                          plan->schema(), ctx, root_op_id,
                                          scan_slot));
}

}  // namespace fusiondb::internal
