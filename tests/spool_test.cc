// Spooling: the SpoolOp executor (materialize once, stream to all
// consumers) and the SpoolCommonSubexpressions pass.
#include <gtest/gtest.h>

#include "optimizer/spool_rule.h"
#include "plan/spool.h"
#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::MustExecute;
using testutil::SharedTpcds;
using testutil::Unwrap;

PlanBuilder Sales(PlanContext* ctx) {
  TablePtr ss = Unwrap(SharedTpcds().GetTable("store_sales"));
  return PlanBuilder::Scan(
      ctx, ss, {"ss_store_sk", "ss_item_sk", "ss_quantity", "ss_list_price"});
}

TEST(SpoolExecTest, SharedChildEvaluatedOnce) {
  PlanContext ctx;
  // One aggregation consumed twice through a shared spool.
  PlanBuilder agg = Sales(&ctx);
  agg.Aggregate({"ss_store_sk"}, {{"total", AggFunc::kSum,
                                   agg.Ref("ss_list_price"), nullptr, false}});
  PlanPtr shared_child = agg.Build();
  PlanPtr consumer_a = std::make_shared<SpoolOp>(1, shared_child);
  PlanPtr consumer_b = std::make_shared<SpoolOp>(1, shared_child);
  PlanBuilder left = PlanBuilder::From(&ctx, consumer_a);
  PlanBuilder right = PlanBuilder::From(&ctx, consumer_b);
  // Cross join the two consumers; if the child ran twice, bytes double.
  left.CrossJoin(right);
  QueryResult r = MustExecute(left.Build());
  // One scan's worth of bytes only.
  PlanBuilder once = Sales(&ctx);
  once.Aggregate({"ss_store_sk"},
                 {{"t", AggFunc::kSum, once.Ref("ss_list_price"), nullptr,
                   false}});
  QueryResult single = MustExecute(once.Build());
  EXPECT_EQ(r.metrics().bytes_scanned, single.metrics().bytes_scanned);
  EXPECT_GT(r.metrics().spool_bytes_written, 0);
  // Written once, read twice.
  EXPECT_EQ(r.metrics().spool_bytes_read,
            2 * r.metrics().spool_bytes_written);
  EXPECT_EQ(r.num_rows(), single.num_rows() * single.num_rows());
}

TEST(SpoolExecTest, RoundtripsAllTypes) {
  PlanContext ctx;
  TablePtr item = Unwrap(SharedTpcds().GetTable("item"));
  PlanBuilder b = PlanBuilder::Scan(
      &ctx, item, {"i_item_sk", "i_brand", "i_current_price"});
  PlanPtr plain = b.Build();
  PlanPtr spooled = std::make_shared<SpoolOp>(7, plain);
  EXPECT_TRUE(
      ResultsEquivalent(MustExecute(plain), MustExecute(spooled)));
}

TEST(SpoolRuleTest, DetectsDuplicatedSubtrees) {
  PlanContext ctx;
  auto make_cte = [&]() {
    PlanBuilder b = Sales(&ctx);
    b.Filter(eb::Gt(b.Ref("ss_quantity"), eb::Int(50)));
    b.Aggregate({"ss_store_sk"},
                {{"t", AggFunc::kSum, b.Ref("ss_list_price"), nullptr,
                  false}});
    return b;
  };
  PlanBuilder a = make_cte();
  PlanBuilder c = make_cte();
  ExprPtr a_store = a.Ref("ss_store_sk");
  a.Join(JoinType::kInner, c, eb::Eq(a_store, c.Ref("ss_store_sk")));
  PlanPtr plan = a.Build();
  PlanPtr spooled = Unwrap(SpoolCommonSubexpressions(plan, &ctx));
  ASSERT_NE(spooled, plan);
  EXPECT_EQ(CountOps(spooled, OpKind::kSpool), 2);
  QueryResult before = MustExecute(plan);
  QueryResult after = MustExecute(spooled);
  EXPECT_TRUE(ResultsEquivalent(before, after));
  EXPECT_LT(after.metrics().bytes_scanned, before.metrics().bytes_scanned);
}

TEST(SpoolRuleTest, SpoolingModeSpoolsEverySmallDuplicate) {
  // Spooling mode shares every identical duplicate, however few rows it
  // produces.
  PlanContext ctx;
  auto make_cte = [&]() {
    PlanBuilder b = Sales(&ctx);
    b.Filter(eb::Gt(b.Ref("ss_quantity"), eb::Int(99)));
    b.Aggregate({"ss_store_sk"},
                {{"t", AggFunc::kSum, b.Ref("ss_list_price"), nullptr,
                  false}});
    return b;
  };
  PlanBuilder a = make_cte();
  a.CrossJoin(make_cte());
  PlanPtr plan = a.Build();
  PlanPtr spooled = Unwrap(
      Optimizer(OptimizerOptions::Spooling()).Optimize(plan, &ctx));
  EXPECT_EQ(CountOps(spooled, OpKind::kSpool), 2) << PlanToString(spooled);
  EXPECT_TRUE(ResultsEquivalent(MustExecute(plan), MustExecute(spooled)));
}

TEST(SpoolRuleTest, DifferentSubtreesUntouched) {
  PlanContext ctx;
  PlanBuilder a = Sales(&ctx);
  a.Filter(eb::Gt(a.Ref("ss_quantity"), eb::Int(50)));
  a.Aggregate({}, {{"c1", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanBuilder b = Sales(&ctx);
  b.Filter(eb::Lt(b.Ref("ss_quantity"), eb::Int(20)));
  b.Aggregate({}, {{"c2", AggFunc::kCountStar, nullptr, nullptr, false}});
  a.CrossJoin(b);
  PlanPtr plan = a.Build();
  // Inexactly-fusable subtrees are fusion's territory, not spooling's.
  PlanPtr spooled = Unwrap(SpoolCommonSubexpressions(plan, &ctx));
  EXPECT_EQ(CountOps(spooled, OpKind::kSpool), 0);
}

TEST(SpoolRuleTest, SpoolingConfigEndToEnd) {
  // Every applicable TPC-DS query must agree across baseline, spooling and
  // fused configurations.
  const Catalog& catalog = SharedTpcds();
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    if (!q.fusion_applicable) continue;
    PlanContext ctx;
    PlanPtr plan = Unwrap(q.build(catalog, &ctx));
    QueryResult base = MustExecute(Unwrap(
        Optimizer(OptimizerOptions::Baseline()).Optimize(plan, &ctx)));
    QueryResult spool = MustExecute(Unwrap(
        Optimizer(OptimizerOptions::Spooling()).Optimize(plan, &ctx)));
    EXPECT_TRUE(ResultsEquivalent(base, spool)) << q.name;
  }
}

TEST(SpoolRuleTest, IdenticalCtesSpoolInQ65) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  tpcds::TpcdsQuery q = Unwrap(tpcds::QueryByName("q65"));
  PlanPtr plan = Unwrap(q.build(catalog, &ctx));
  PlanPtr spooled = Unwrap(
      Optimizer(OptimizerOptions::Spooling()).Optimize(plan, &ctx));
  EXPECT_GE(CountOps(spooled, OpKind::kSpool), 2);
  // The shared CTE's fact scan happens once.
  QueryResult rs = MustExecute(spooled);
  QueryResult rb = MustExecute(Unwrap(
      Optimizer(OptimizerOptions::Baseline()).Optimize(plan, &ctx)));
  EXPECT_LT(rs.metrics().bytes_scanned, rb.metrics().bytes_scanned);
}

}  // namespace
}  // namespace fusiondb
