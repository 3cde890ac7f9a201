// Shared hash-aggregation build core: bound (function, mask) aggregates with
// mask/conjunct deduplication, the group hash table, and the accumulate /
// merge / finalize steps. AggregateExec (the pull operator) and the
// compiled-pipeline aggregate sink (exec/pipeline.h) both build on this, so
// the two execution paths share one accumulation discipline — identical
// group id order, identical per-(group, aggregate) row order, and
// identical memory accounting — which is what makes their outputs
// byte-identical (DESIGN.md §13).
#ifndef FUSIONDB_EXEC_AGG_BUILD_H_
#define FUSIONDB_EXEC_AGG_BUILD_H_

#include <functional>
#include <optional>
#include <vector>

#include "exec/agg_state.h"
#include "exec/exec_context.h"
#include "exec/keyed_table.h"
#include "expr/evaluator.h"
#include "plan/logical_plan.h"

namespace fusiondb::internal {

/// Bound form of one aggregate: evaluators for mask and argument. Masks are
/// deduplicated per operator (fusion gives many aggregates the same mask —
/// Q09 ends with 15 aggregates over 5 distinct masks) and evaluated once
/// per chunk; bare-column arguments read the input column directly.
struct BoundAgg {
  const AggregateItem* item;
  std::optional<BoundExpr> arg;
  int arg_column = -1;  // >= 0 when the argument is a bare column reference
  int mask_slot = -1;   // index into the per-chunk mask selections; -1 == TRUE
};

/// Deduplicated masks shared by a set of aggregates. Masks are stored as
/// lists of *conjunct* slots, and conjuncts are deduplicated across masks
/// (after fusion, `lp_avg_i`, `lp_cnt_i` and `lp_cntd_i` all carry the same
/// bucket condition), so each distinct conjunct is evaluated once per chunk
/// and masks intersect selections. Sound for filtering because a conjunction
/// is TRUE iff every conjunct is TRUE.
struct MaskSet {
  std::vector<BoundExpr> conjuncts;          // unique conjunct evaluators
  std::vector<std::vector<int>> mask_slots;  // per mask: conjunct indexes

  size_t num_masks() const { return mask_slots.size(); }

  /// Evaluates all masks over a chunk: one selection vector per mask, each
  /// the intersection of its conjuncts' surviving rows.
  std::vector<SelVector> Evaluate(const Chunk& chunk) const;
  /// The per-mask intersections of per-conjunct selections over `rows`
  /// rows; a mask without conjuncts selects every row.
  std::vector<SelVector> Combine(const std::vector<SelVector>& conjunct_sels,
                                 size_t rows) const;
};

struct BoundAggs {
  std::vector<BoundAgg> aggs;
  MaskSet mask_set;
};

Result<BoundAggs> BindAggs(const std::vector<AggregateItem>& items,
                           const Schema& input);

/// Per-group aggregate states, one per BoundAgg.
struct GroupEntry {
  std::vector<AggState> states;
};

/// The groups of one aggregation: the key table maps each row's grouping
/// values to a dense id (first-seen order), and `entries` holds each id's
/// states. The grouping values themselves are decoded from the key bytes
/// when the groups are finalized.
struct AggGroups {
  KeyedHashTable keys;
  std::vector<GroupEntry> entries;  // indexed by key id

  void AddEntry(size_t num_aggs) {
    entries.emplace_back().states.resize(num_aggs);
  }
  /// A scalar aggregate's one group (the empty key), which emits a row even
  /// over empty input.
  void SeedScalar(size_t num_aggs) {
    if (keys.InsertKey({}).inserted) AddEntry(num_aggs);
  }
  /// Memory-metric charge: the key table's ByteSize(), the entry vector,
  /// and each state's AggStateBytes.
  int64_t ByteSize() const;
};

/// Column-level view of one morsel's aggregate input. The pull operator
/// points it at its input chunk's columns; the compiled pipeline points it
/// at dense columns evaluated straight off the scan morsel — either way the
/// accumulation loop below sees the same values in the same row order.
struct AggInputView {
  size_t rows = 0;
  std::vector<const Column*> group_cols;
  /// Parallel to the BoundAgg vector; nullptr for COUNT(*) (no argument).
  std::vector<const Column*> arg_cols;
  /// One selection per MaskSet mask, in mask-slot order.
  std::vector<SelVector> masks;
};

/// View over a materialized chunk: the group columns `group_indexes`,
/// bare-column arguments read in place, expression arguments evaluated once
/// into `*expr_args` (which must outlive the view), and every mask of
/// `masks` evaluated over the chunk.
AggInputView ChunkView(const Chunk& in, const std::vector<int>& group_indexes,
                       const std::vector<BoundAgg>& aggs, const MaskSet& masks,
                       std::vector<Column>* expr_args);

/// Accumulates every row of `view` into `groups` and returns each row's
/// group id. Two passes: pass 1 resolves each row's group id in row order
/// (fixing the order in which ids are assigned); pass 2 walks each
/// aggregate's mask selection ascending, so every (group, aggregate) state
/// sees its rows in exactly the row-at-a-time order — floating-point sums
/// accumulate deterministically.
std::vector<uint32_t> AccumulateView(const AggInputView& view,
                                     const std::vector<BoundAgg>& aggs,
                                     AggGroups* groups);

/// The parallel build: `accumulate(i, partial)` adds morsel i (of
/// `morsels`) to worker-private partial i mod W, in one region of the
/// context's pool; the partials then fold into `groups` in partial order
/// (partial 0 first, each in id order), via AggState::Merge for groups
/// present in several. Deterministic for a fixed worker count.
Status AccumulatePartials(
    ExecContext* ctx, size_t morsels, const std::vector<BoundAgg>& aggs,
    const std::function<void(size_t, AggGroups*)>& accumulate,
    AggGroups* groups);

/// Emits one row per group in id order: grouping values first, then each
/// aggregate's finalized value.
Chunk FinalizeGroups(AggGroups* groups, const std::vector<BoundAgg>& aggs,
                     const std::vector<DataType>& output_types,
                     size_t group_width);

}  // namespace fusiondb::internal

#endif  // FUSIONDB_EXEC_AGG_BUILD_H_
