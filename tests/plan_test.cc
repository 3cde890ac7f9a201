// Logical plan construction: PlanBuilder, schema propagation,
// CloneWithChildren, renumbering into another id space, plan fingerprints,
// the plan printer and structural helpers.
#include <gtest/gtest.h>

#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::SharedTpcds;
using testutil::Unwrap;

PlanBuilder ScanItems(PlanContext* ctx) {
  TablePtr item = Unwrap(SharedTpcds().GetTable("item"));
  return PlanBuilder::Scan(ctx, item,
                           {"i_item_sk", "i_brand_id", "i_category"});
}

TEST(PlanBuilderTest, ScanMintsFreshIds) {
  PlanContext ctx;
  PlanBuilder a = ScanItems(&ctx);
  PlanBuilder b = ScanItems(&ctx);
  // Two instances of the same table get disjoint column identities —
  // Athena's convention, which fusion relies on.
  for (const ColumnInfo& ca : a.schema().columns()) {
    EXPECT_FALSE(b.schema().Contains(ca.id));
  }
  EXPECT_EQ(a.Build()->kind(), OpKind::kScan);
  EXPECT_EQ(Cast<ScanOp>(*a.Build()).table()->name(), "item");
}

TEST(PlanBuilderTest, FilterProjectSchemas) {
  PlanContext ctx;
  PlanBuilder b = ScanItems(&ctx);
  ColumnId sk = b.Col("i_item_sk").id;
  b.Filter(eb::Gt(b.Ref("i_item_sk"), eb::Int(10)));
  EXPECT_EQ(b.schema().num_columns(), 3u);  // filters pass through
  b.Project({{"doubled", eb::Mul(b.Ref("i_item_sk"), eb::Int(2))}});
  EXPECT_EQ(b.schema().num_columns(), 1u);
  EXPECT_EQ(b.schema().column(0).name, "doubled");
  EXPECT_FALSE(b.schema().Contains(sk));
}

TEST(PlanBuilderTest, SelectKeepsIds) {
  PlanContext ctx;
  PlanBuilder b = ScanItems(&ctx);
  ColumnId sk = b.Col("i_item_sk").id;
  b.Select({"i_item_sk"});
  EXPECT_EQ(b.schema().num_columns(), 1u);
  EXPECT_EQ(b.schema().column(0).id, sk);
}

TEST(PlanTest, RenumberKeepsPassthroughProjections) {
  // Select builds a passthrough projection: its output keeps the child's id.
  // Renumbering into another context must keep that shape, or the
  // projection becomes a rename and rules that match on shared ids stop
  // seeing through it.
  PlanContext source;
  PlanBuilder b = ScanItems(&source);
  b.Select({"i_item_sk"});
  PlanBuilder renamed = b;
  renamed.Project({{"sk_copy", renamed.Ref("i_item_sk")}});

  PlanContext target;
  ScanItems(&target);  // shift target's id counter
  RenumberedPlan select = RenumberPlan(b.Build(), &target);
  const auto& project = Cast<ProjectOp>(*select.plan);
  ColumnId child_id = project.child(0)->schema().column(0).id;
  EXPECT_EQ(project.exprs()[0].id, child_id);
  EXPECT_EQ(project.exprs()[0].expr->column_id(), child_id);
  EXPECT_EQ(ApplyMap(select.mapping, b.Col("i_item_sk").id), child_id);
  EXPECT_EQ(PlanFingerprint(select.plan), PlanFingerprint(b.Build()));

  // A real rename still mints a fresh id.
  RenumberedPlan rename = RenumberPlan(renamed.Build(), &target);
  const auto& outer = Cast<ProjectOp>(*rename.plan);
  EXPECT_NE(outer.exprs()[0].id, outer.child(0)->schema().column(0).id);
}

TEST(PlanBuilderTest, JoinSchemasByType) {
  PlanContext ctx;
  PlanBuilder l = ScanItems(&ctx);
  PlanBuilder r = ScanItems(&ctx);
  size_t lw = l.schema().num_columns();
  PlanBuilder inner = l;
  inner.JoinOn(JoinType::kInner, r, {{"i_item_sk", "i_item_sk"}});
  EXPECT_EQ(inner.schema().num_columns(), 2 * lw);
  PlanBuilder semi = ScanItems(&ctx);
  PlanBuilder r2 = ScanItems(&ctx);
  semi.Join(JoinType::kSemi, r2,
            eb::Eq(semi.Ref("i_item_sk"), r2.Ref("i_item_sk")));
  EXPECT_EQ(semi.schema().num_columns(), lw);
}

TEST(PlanBuilderTest, AggregateSchema) {
  PlanContext ctx;
  PlanBuilder b = ScanItems(&ctx);
  ColumnId cat = b.Col("i_category").id;
  b.Aggregate({"i_category"},
              {{"cnt", AggFunc::kCountStar, nullptr, nullptr, false},
               {"max_brand", AggFunc::kMax, b.Ref("i_brand_id"), nullptr,
                false}});
  ASSERT_EQ(b.schema().num_columns(), 3u);
  EXPECT_EQ(b.schema().column(0).id, cat);  // group cols keep identity
  EXPECT_EQ(b.schema().column(1).type, DataType::kInt64);
  const auto& agg = Cast<AggregateOp>(*b.Build());
  EXPECT_FALSE(agg.IsScalar());
  EXPECT_EQ(agg.aggregates()[0].result_type(), DataType::kInt64);
}

TEST(PlanBuilderTest, AggResultTypes) {
  EXPECT_EQ(AggResultType(AggFunc::kAvg, DataType::kInt64),
            DataType::kFloat64);
  EXPECT_EQ(AggResultType(AggFunc::kSum, DataType::kInt64), DataType::kInt64);
  EXPECT_EQ(AggResultType(AggFunc::kSum, DataType::kFloat64),
            DataType::kFloat64);
  EXPECT_EQ(AggResultType(AggFunc::kMin, DataType::kString),
            DataType::kString);
  EXPECT_EQ(AggResultType(AggFunc::kCount, DataType::kString),
            DataType::kInt64);
}

TEST(PlanBuilderTest, WindowAppendsColumns) {
  PlanContext ctx;
  PlanBuilder b = ScanItems(&ctx);
  b.Window({"i_category"}, {{"avg_brand", AggFunc::kAvg, b.Ref("i_brand_id"),
                             nullptr, false}});
  EXPECT_EQ(b.schema().num_columns(), 4u);
  EXPECT_EQ(b.schema().column(3).type, DataType::kFloat64);
}

TEST(PlanBuilderTest, UnionAllPositional) {
  PlanContext ctx;
  PlanBuilder a = ScanItems(&ctx);
  a.Select({"i_item_sk"});
  PlanBuilder b = ScanItems(&ctx);
  b.Select({"i_item_sk"});
  PlanBuilder u = PlanBuilder::UnionAll(&ctx, {a, b});
  EXPECT_EQ(u.schema().num_columns(), 1u);
  const auto& op = Cast<UnionAllOp>(*u.Build());
  EXPECT_EQ(op.num_children(), 2u);
  EXPECT_EQ(op.input_columns()[0][0], a.schema().column(0).id);
}

TEST(PlanTest, CloneWithChildrenRecomputesSchema) {
  PlanContext ctx;
  PlanBuilder b = ScanItems(&ctx);
  ExprPtr pred = eb::Gt(b.Ref("i_brand_id"), eb::Int(3));
  PlanPtr filter = std::make_shared<FilterOp>(b.Build(), pred);
  // Re-parent the filter over a narrower scan that still has the column.
  PlanBuilder narrow = PlanBuilder::From(
      &ctx, b.Build());
  PlanPtr clone = filter->CloneWithChildren({narrow.Build()});
  EXPECT_EQ(clone->kind(), OpKind::kFilter);
  EXPECT_EQ(Cast<FilterOp>(*clone).predicate(), pred);
}

TEST(PlanPrinterTest, RendersAndCounts) {
  PlanContext ctx;
  PlanBuilder b = ScanItems(&ctx);
  b.Filter(eb::Gt(b.Ref("i_brand_id"), eb::Int(10)));
  b.Aggregate({"i_category"},
              {{"cnt", AggFunc::kCountStar, nullptr, nullptr, false}});
  b.Sort({{"cnt", false}});
  b.Limit(5);
  PlanPtr plan = b.Build();
  std::string text = PlanToString(plan);
  EXPECT_NE(text.find("Scan(item)"), std::string::npos);
  EXPECT_NE(text.find("Aggregate"), std::string::npos);
  EXPECT_NE(text.find("Limit 5"), std::string::npos);
  EXPECT_EQ(CountOps(plan, OpKind::kFilter), 1);
  EXPECT_EQ(CountTableScans(plan, "item"), 1);
  EXPECT_EQ(CountTableScans(plan, "store"), 0);
  EXPECT_EQ(CountAllOps(plan), 5);
}

TEST(PlanTest, ValuesAndSingleRow) {
  PlanContext ctx;
  PlanBuilder v = PlanBuilder::Values(
      &ctx, {"tag"}, {DataType::kInt64},
      {{Value::Int64(1)}, {Value::Int64(2)}});
  EXPECT_EQ(Cast<ValuesOp>(*v.Build()).rows().size(), 2u);
  v.EnforceSingleRow();
  EXPECT_EQ(v.Build()->kind(), OpKind::kEnforceSingleRow);
}

TEST(PlanTest, ApplySchemaAppendsScalar) {
  PlanContext ctx;
  PlanBuilder outer = ScanItems(&ctx);
  PlanBuilder inner = ScanItems(&ctx);
  ColumnId corr = inner.Col("i_category").id;
  PlanBuilder sub = inner;
  sub.Aggregate({}, {{"avg_b", AggFunc::kAvg, inner.Ref("i_brand_id"),
                      nullptr, false}});
  outer.Apply(sub, {{"i_category", corr}});
  EXPECT_EQ(outer.schema().num_columns(), 4u);
  EXPECT_EQ(outer.schema().column(3).name, "avg_b");
  const auto& apply = Cast<ApplyOp>(*outer.Build());
  EXPECT_EQ(apply.correlation().size(), 1u);
}

// --- plan fingerprints -----------------------------------------------------

PlanBuilder Sales(PlanContext* ctx) {
  TablePtr ss = Unwrap(SharedTpcds().GetTable("store_sales"));
  return PlanBuilder::Scan(
      ctx, ss, {"ss_store_sk", "ss_item_sk", "ss_quantity", "ss_list_price"});
}

/// The duplicated-CTE fixture: filter + grouped aggregate over store_sales.
PlanBuilder SalesCte(PlanContext* ctx) {
  PlanBuilder b = Sales(ctx);
  b.Filter(eb::Gt(b.Ref("ss_quantity"), eb::Int(50)));
  b.Aggregate({"ss_store_sk"},
              {{"t", AggFunc::kSum, b.Ref("ss_list_price"), nullptr, false}});
  return b;
}

/// Two instances of the CTE cross-joined: the same logical subtree twice.
PlanPtr DuplicatedCtePlan(PlanContext* ctx) {
  PlanBuilder a = SalesCte(ctx);
  PlanBuilder b = SalesCte(ctx);
  a.CrossJoin(b);
  return a.Build();
}

TEST(PlanFingerprintTest, DeterministicAcrossIdRenumbering) {
  // The same logical query built in two contexts mints disjoint ColumnId
  // ranges (the second context also burns extra ids first); fingerprints
  // must agree anyway, else the server could never recognise the same
  // query submitted by two sessions.
  PlanContext ctx1;
  PlanPtr p1 = DuplicatedCtePlan(&ctx1);
  PlanContext ctx2;
  Sales(&ctx2).Build();  // shift ctx2's id counter
  PlanPtr p2 = DuplicatedCtePlan(&ctx2);
  EXPECT_NE(p1->schema().column(0).id, p2->schema().column(0).id)
      << "fixture should renumber ids, or the test proves nothing";
  EXPECT_EQ(PlanCanonicalString(p1), PlanCanonicalString(p2));
  EXPECT_EQ(PlanFingerprint(p1), PlanFingerprint(p2));
}

TEST(PlanFingerprintTest, SensitiveToPlanChanges) {
  PlanContext ctx;
  uint64_t base = PlanFingerprint(SalesCte(&ctx).Build());

  // Different filter constant.
  PlanBuilder c1 = Sales(&ctx);
  c1.Filter(eb::Gt(c1.Ref("ss_quantity"), eb::Int(51)));
  c1.Aggregate({"ss_store_sk"},
               {{"t", AggFunc::kSum, c1.Ref("ss_list_price"), nullptr, false}});
  EXPECT_NE(PlanFingerprint(c1.Build()), base);

  // Different aggregate function.
  PlanBuilder c2 = Sales(&ctx);
  c2.Filter(eb::Gt(c2.Ref("ss_quantity"), eb::Int(50)));
  c2.Aggregate({"ss_store_sk"},
               {{"t", AggFunc::kMin, c2.Ref("ss_list_price"), nullptr, false}});
  EXPECT_NE(PlanFingerprint(c2.Build()), base);

  // Missing operator (no filter).
  PlanBuilder c3 = Sales(&ctx);
  c3.Aggregate({"ss_store_sk"},
               {{"t", AggFunc::kSum, c3.Ref("ss_list_price"), nullptr, false}});
  EXPECT_NE(PlanFingerprint(c3.Build()), base);

  // Same operator census over a different base table.
  TablePtr ws = Unwrap(SharedTpcds().GetTable("web_sales"));
  PlanBuilder c4 = PlanBuilder::Scan(
      &ctx, ws, {"ws_warehouse_sk", "ws_item_sk", "ws_quantity",
                 "ws_list_price"});
  c4.Filter(eb::Gt(c4.Ref("ws_quantity"), eb::Int(50)));
  c4.Aggregate({"ws_warehouse_sk"},
               {{"t", AggFunc::kSum, c4.Ref("ws_list_price"), nullptr, false}});
  EXPECT_NE(PlanFingerprint(c4.Build()), base);
}

}  // namespace
}  // namespace fusiondb
