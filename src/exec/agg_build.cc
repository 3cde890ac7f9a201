#include "exec/agg_build.h"

#include "exec/thread_pool.h"
#include "expr/simplifier.h"

namespace fusiondb::internal {

std::vector<SelVector> MaskSet::Evaluate(const Chunk& chunk) const {
  std::vector<SelVector> conjunct_sels;
  conjunct_sels.reserve(conjuncts.size());
  for (const BoundExpr& c : conjuncts) {
    conjunct_sels.push_back(c.EvalFilter(chunk));
  }
  return Combine(conjunct_sels, chunk.num_rows());
}

std::vector<SelVector> MaskSet::Combine(
    const std::vector<SelVector>& conjunct_sels, size_t rows) const {
  std::vector<SelVector> sels;
  sels.reserve(mask_slots.size());
  for (const std::vector<int>& slots : mask_slots) {
    SelVector sel = slots.empty() ? SelVector::Dense(rows)
                                  : conjunct_sels[slots[0]];
    for (size_t i = 1; i < slots.size(); ++i) {
      sel = SelVector::Intersect(sel, conjunct_sels[slots[i]]);
    }
    sels.push_back(std::move(sel));
  }
  return sels;
}

Result<BoundAggs> BindAggs(const std::vector<AggregateItem>& items,
                           const Schema& input) {
  BoundAggs out;
  out.aggs.reserve(items.size());
  std::vector<std::string> mask_fps;      // dedupe whole masks
  std::vector<std::string> conjunct_fps;  // dedupe conjuncts across masks
  for (const AggregateItem& item : items) {
    BoundAgg b;
    b.item = &item;
    if (item.arg != nullptr) {
      FUSIONDB_ASSIGN_OR_RETURN(BoundExpr e, BindExpr(item.arg, input));
      b.arg = std::move(e);
      if (item.arg->kind() == ExprKind::kColumnRef) {
        b.arg_column = input.IndexOf(item.arg->column_id());
      }
    } else if (item.func != AggFunc::kCountStar) {
      return Status::PlanError("aggregate " + item.name + " missing argument");
    }
    if (item.mask != nullptr && !item.mask->IsLiteralBool(true)) {
      if (item.mask->type() != DataType::kBool) {
        return Status::TypeError("aggregate mask must be boolean");
      }
      std::string fp = ExprFingerprint(item.mask);
      for (size_t i = 0; i < mask_fps.size(); ++i) {
        if (mask_fps[i] == fp) {
          b.mask_slot = static_cast<int>(i);
          break;
        }
      }
      if (b.mask_slot < 0) {
        std::vector<ExprPtr> parts;
        SplitConjuncts(item.mask, &parts);
        std::vector<int> slots;
        slots.reserve(parts.size());
        for (const ExprPtr& part : parts) {
          std::string pfp = ExprFingerprint(part);
          int slot = -1;
          for (size_t i = 0; i < conjunct_fps.size(); ++i) {
            if (conjunct_fps[i] == pfp) {
              slot = static_cast<int>(i);
              break;
            }
          }
          if (slot < 0) {
            FUSIONDB_ASSIGN_OR_RETURN(BoundExpr e, BindExpr(part, input));
            slot = static_cast<int>(out.mask_set.conjuncts.size());
            out.mask_set.conjuncts.push_back(std::move(e));
            conjunct_fps.push_back(std::move(pfp));
          }
          slots.push_back(slot);
        }
        b.mask_slot = static_cast<int>(out.mask_set.mask_slots.size());
        out.mask_set.mask_slots.push_back(std::move(slots));
        mask_fps.push_back(std::move(fp));
      }
    }
    out.aggs.push_back(std::move(b));
  }
  return out;
}

AggInputView ChunkView(const Chunk& in, const std::vector<int>& group_indexes,
                       const std::vector<BoundAgg>& aggs, const MaskSet& masks,
                       std::vector<Column>* expr_args) {
  AggInputView view;
  view.rows = in.num_rows();
  view.group_cols = KeyColumns(in, group_indexes);
  view.masks = masks.Evaluate(in);
  expr_args->assign(aggs.size(), Column());
  view.arg_cols.resize(aggs.size(), nullptr);
  for (size_t a = 0; a < aggs.size(); ++a) {
    const BoundAgg& agg = aggs[a];
    if (agg.arg_column >= 0) {
      view.arg_cols[a] = &in.columns[agg.arg_column];
    } else if (agg.arg.has_value()) {
      (*expr_args)[a] = agg.arg->EvalAll(in);
      view.arg_cols[a] = &(*expr_args)[a];
    }
  }
  return view;
}

std::vector<uint32_t> AccumulateView(const AggInputView& view,
                                     const std::vector<BoundAgg>& aggs,
                                     AggGroups* groups) {
  size_t rows = view.rows;
  // Pass 1: resolve each row's group id once.
  std::vector<uint32_t> row_ids(rows);
  for (size_t r = 0; r < rows; ++r) {
    KeyedHashTable::Insertion ins = groups->keys.Insert(view.group_cols, r);
    if (ins.inserted) groups->AddEntry(aggs.size());
    row_ids[r] = ins.id;
  }
  std::vector<GroupEntry>& entries = groups->entries;
  // Pass 2: per aggregate, one walk over its mask's surviving rows. Each
  // (group, aggregate) state still sees its rows in ascending order, so
  // floating-point sums accumulate in exactly the row-at-a-time order.
  SelVector dense;
  for (size_t a = 0; a < aggs.size(); ++a) {
    const BoundAgg& agg = aggs[a];
    if (agg.mask_slot < 0 && dense.size() != rows) {
      dense = SelVector::Dense(rows);
    }
    const SelVector& sel =
        agg.mask_slot >= 0 ? view.masks[agg.mask_slot] : dense;
    const Column* col = view.arg_cols[a];
    if (col != nullptr) {
      for (uint32_t r : sel) {
        entries[row_ids[r]].states[a].AccumulateColumnRow(*agg.item, *col, r);
      }
    } else {
      // COUNT(*): no argument to read.
      for (uint32_t r : sel) ++entries[row_ids[r]].states[a].mask_rows;
    }
  }
  return row_ids;
}

Status AccumulatePartials(
    ExecContext* ctx, size_t morsels, const std::vector<BoundAgg>& aggs,
    const std::function<void(size_t, AggGroups*)>& accumulate,
    AggGroups* groups) {
  ThreadPool* pool = ctx->pool();
  size_t workers = pool->num_workers();
  std::vector<AggGroups> partials(workers);
  ParallelRegion region(ctx);
  FUSIONDB_RETURN_IF_ERROR(pool->ParallelFor(
      workers, [&](size_t /*worker*/, size_t w) -> Status {
        // `w` is the partial's index; each is claimed exactly once, so the
        // partial table is touched by a single thread.
        for (size_t i = w; i < morsels; i += workers) {
          accumulate(i, &partials[w]);
        }
        return Status::OK();
      }));
  for (AggGroups& part : partials) {
    for (uint32_t id = 0; id < part.keys.size(); ++id) {
      GroupEntry& src = part.entries[id];
      KeyedHashTable::Insertion ins = groups->keys.InsertKey(part.keys.Key(id));
      if (ins.inserted) {
        groups->entries.push_back(std::move(src));
        continue;
      }
      GroupEntry& dst = groups->entries[ins.id];
      for (size_t a = 0; a < aggs.size(); ++a) {
        dst.states[a].Merge(*aggs[a].item, std::move(src.states[a]));
      }
    }
  }
  return Status::OK();
}

int64_t AggGroups::ByteSize() const {
  int64_t bytes = keys.ByteSize() +
                  static_cast<int64_t>(entries.capacity() * sizeof(GroupEntry));
  for (const GroupEntry& entry : entries) {
    for (const AggState& s : entry.states) bytes += AggStateBytes(s);
  }
  return bytes;
}

Chunk FinalizeGroups(AggGroups* groups, const std::vector<BoundAgg>& aggs,
                     const std::vector<DataType>& output_types,
                     size_t group_width) {
  Chunk out = Chunk::Empty(output_types);
  for (uint32_t id = 0; id < groups->keys.size(); ++id) {
    groups->keys.AppendKey(id, group_width, &out.columns);
    std::vector<AggState>& states = groups->entries[id].states;
    for (size_t a = 0; a < states.size(); ++a) {
      Value v = states[a].Finalize(*aggs[a].item);
      out.columns[group_width + a].AppendValue(v);
    }
  }
  return out;
}

}  // namespace fusiondb::internal
