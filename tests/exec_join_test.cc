// Hash join executor: inner/left/semi/cross, residual predicates, NULL
// keys, and working-memory accounting.
#include <gtest/gtest.h>

#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::MustExecute;
using testutil::Unwrap;

/// left(id, grp): (1,10) (2,20) (3,NULL) (4,40)
TablePtr LeftTable() {
  static TablePtr t = [] {
    TableBuilder b("left_t", {{"id", DataType::kInt64},
                              {"grp", DataType::kInt64}});
    EXPECT_TRUE(b.AppendRow({Value::Int64(1), Value::Int64(10)}).ok());
    EXPECT_TRUE(b.AppendRow({Value::Int64(2), Value::Int64(20)}).ok());
    EXPECT_TRUE(b.AppendRow({Value::Int64(3), Value::Null(DataType::kInt64)})
                    .ok());
    EXPECT_TRUE(b.AppendRow({Value::Int64(4), Value::Int64(40)}).ok());
    return Unwrap(b.Build());
  }();
  return t;
}

/// right(ref, tagname): (10,"a") (10,"b") (20,"c") (NULL,"n") (99,"z")
TablePtr RightTable() {
  static TablePtr t = [] {
    TableBuilder b("right_t", {{"ref", DataType::kInt64},
                               {"tagname", DataType::kString}});
    EXPECT_TRUE(b.AppendRow({Value::Int64(10), Value::String("a")}).ok());
    EXPECT_TRUE(b.AppendRow({Value::Int64(10), Value::String("b")}).ok());
    EXPECT_TRUE(b.AppendRow({Value::Int64(20), Value::String("c")}).ok());
    EXPECT_TRUE(
        b.AppendRow({Value::Null(DataType::kInt64), Value::String("n")}).ok());
    EXPECT_TRUE(b.AppendRow({Value::Int64(99), Value::String("z")}).ok());
    return Unwrap(b.Build());
  }();
  return t;
}

std::pair<PlanBuilder, PlanBuilder> Scans(PlanContext* ctx) {
  return {PlanBuilder::Scan(ctx, LeftTable(), {"id", "grp"}),
          PlanBuilder::Scan(ctx, RightTable(), {"ref", "tagname"})};
}

TEST(JoinExecTest, InnerJoinMultiplicity) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.JoinOn(JoinType::kInner, r, {{"grp", "ref"}});
  QueryResult result = MustExecute(l.Build());
  // id=1 matches two right rows, id=2 one; NULL grp and 40 match none.
  EXPECT_EQ(result.num_rows(), 3);
}

TEST(JoinExecTest, NullKeysNeverJoin) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.JoinOn(JoinType::kInner, r, {{"grp", "ref"}});
  QueryResult result = MustExecute(l.Build());
  for (int64_t i = 0; i < result.num_rows(); ++i) {
    EXPECT_FALSE(result.At(i, 1).is_null());
    EXPECT_FALSE(result.At(i, 2).is_null());
  }
}

TEST(JoinExecTest, LeftJoinNullExtends) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.JoinOn(JoinType::kLeft, r, {{"grp", "ref"}});
  QueryResult result = MustExecute(l.Build());
  // 3 matches + 2 unmatched left rows (id=3 NULL grp, id=4).
  EXPECT_EQ(result.num_rows(), 5);
  int nulls = 0;
  for (int64_t i = 0; i < result.num_rows(); ++i) {
    nulls += result.At(i, 3).is_null() ? 1 : 0;
  }
  EXPECT_EQ(nulls, 2);
}

TEST(JoinExecTest, SemiJoinEmitsLeftOnce) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.Join(JoinType::kSemi, r, eb::Eq(l.Ref("grp"), r.Ref("ref")));
  QueryResult result = MustExecute(l.Build());
  // id=1 (despite two matches) and id=2.
  EXPECT_EQ(result.num_rows(), 2);
  EXPECT_EQ(result.schema().num_columns(), 2u);
}

TEST(JoinExecTest, ResidualPredicate) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  // Equi join + non-equi residual on the right string column.
  l.JoinOn(JoinType::kInner, r, {{"grp", "ref"}},
           eb::Ne(r.Ref("tagname"), eb::Str("a")));
  QueryResult result = MustExecute(l.Build());
  EXPECT_EQ(result.num_rows(), 2);  // (1,b) and (2,c)
}

TEST(JoinExecTest, PureNonEquiFallsBackToNestedLoop) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.Join(JoinType::kInner, r, eb::Lt(l.Ref("grp"), r.Ref("ref")));
  QueryResult result = MustExecute(l.Build());
  // grp=10 < {20,99} => 2; grp=20 < {99} => 1; grp=40 < {99} => 1.
  EXPECT_EQ(result.num_rows(), 4);
}

TEST(JoinExecTest, CrossJoinFullProduct) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.CrossJoin(r);
  QueryResult result = MustExecute(l.Build());
  EXPECT_EQ(result.num_rows(), 20);
}

TEST(JoinExecTest, BuildSideMemoryAccounted) {
  PlanContext ctx;
  auto [l, r] = Scans(&ctx);
  l.JoinOn(JoinType::kInner, r, {{"grp", "ref"}});
  QueryResult result = MustExecute(l.Build());
  EXPECT_GT(result.metrics().peak_hash_bytes, 0);
}

TEST(JoinExecTest, DuplicateBuildKeysMatchInBuildRowOrder) {
  // build(bk, seq): 2000 rows over 7 keys, seq ascending in row order, in
  // 8 partitions so the parallel run scans morsels on several workers.
  TableBuilder bb("build_t", {{"bk", DataType::kInt64},
                              {"seq", DataType::kInt64}});
  ASSERT_TRUE(bb.PartitionBy("seq", 250).ok());
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(bb.AppendRow({Value::Int64(i % 7), Value::Int64(i)}).ok());
  }
  TablePtr build = Unwrap(bb.Build());
  TableBuilder pb("probe_t", {{"pk", DataType::kInt64},
                              {"pid", DataType::kInt64}});
  ASSERT_TRUE(pb.PartitionBy("pid", 25).ok());
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(pb.AppendRow({Value::Int64(i % 9), Value::Int64(i)}).ok());
  }
  TablePtr probe = Unwrap(pb.Build());

  PlanContext ctx;
  PlanBuilder l = PlanBuilder::Scan(&ctx, probe, {"pk", "pid"});
  l.JoinOn(JoinType::kInner, PlanBuilder::Scan(&ctx, build, {"bk", "seq"}),
           {{"pk", "bk"}});
  QueryResult serial = Unwrap(ExecutePlan(l.Build(), {.parallelism = 1}));
  QueryResult wide = Unwrap(ExecutePlan(l.Build(), {.parallelism = 4}));
  EXPECT_TRUE(ResultsEqualOrdered(serial, wide));

  // Keys 0..6 each match 2000/7 build rows; keys 7 and 8 match none.
  int64_t expected = 0;
  for (int64_t i = 0; i < 100; ++i) {
    if (i % 9 < 7) expected += (2000 - i % 9 + 6) / 7;
  }
  ASSERT_EQ(serial.num_rows(), expected);
  for (int64_t r = 1; r < serial.num_rows(); ++r) {
    if (serial.At(r, 1) != serial.At(r - 1, 1)) continue;  // next probe row
    EXPECT_LT(serial.At(r - 1, 3).int_value(), serial.At(r, 3).int_value())
        << "row " << r;
  }
}

TEST(JoinExecTest, SelfJoinWithInequality) {
  // The Q95 ws_wh shape: self-join on a key with an inequality residual.
  PlanContext ctx;
  PlanBuilder a = PlanBuilder::Scan(&ctx, RightTable(), {"ref", "tagname"});
  PlanBuilder b = PlanBuilder::Scan(&ctx, RightTable(), {"ref", "tagname"});
  ExprPtr cond = eb::And(eb::Eq(a.Ref("ref"), b.Ref("ref")),
                         eb::Ne(a.Ref("tagname"), b.Ref("tagname")));
  a.Join(JoinType::kInner, b, cond);
  QueryResult result = MustExecute(a.Build());
  // ref=10 has two rows with different tags -> (a,b) and (b,a).
  EXPECT_EQ(result.num_rows(), 2);
}

}  // namespace
}  // namespace fusiondb
