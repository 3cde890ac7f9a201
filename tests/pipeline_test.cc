// Compiled pipelines (src/exec/pipeline.h): the interpreted pull executor is
// the oracle, and every test here is a differential check against it —
// compiled runs must render byte-identical rows in identical order and
// report identical metrics. Coverage: a fixed-seed fuzz over randomized
// scan→filter→project(→aggregate) chains, the full TPC-DS sweep under all
// four optimizer modes, parallelism invariance (the `parallel` ctest label;
// run under TSan via -DFUSIONDB_SANITIZE=thread + `ctest -L parallel`),
// fallback-reason recording, and the EXPLAIN ANALYZE / service-counter
// surfaces.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "test_util.h"

namespace fusiondb {
namespace {

using testutil::SharedTpcds;
using testutil::Unwrap;

/// Executes `plan` with pipeline compilation on and off and asserts the two
/// executions are indistinguishable: same rows in the same order (the
/// byte-identity discipline — compiled pipelines preserve chunk boundaries
/// and accumulation order, not just multiset equality) and same metrics.
/// Returns the compiled run for callers that inspect its PipelineRecords.
QueryResult ExpectCompiledMatchesInterpreted(const PlanPtr& plan,
                                             size_t parallelism = 1) {
  QueryResult compiled = Unwrap(ExecutePlan(
      plan, {.parallelism = parallelism, .compile_pipelines = true}));
  QueryResult interpreted = Unwrap(ExecutePlan(
      plan, {.parallelism = parallelism, .compile_pipelines = false}));
  EXPECT_TRUE(ResultsEqualOrdered(compiled, interpreted))
      << "compiled and interpreted rows diverge for plan:\n"
      << PlanToString(plan);
  const ExecMetrics& c = compiled.metrics();
  const ExecMetrics& i = interpreted.metrics();
  EXPECT_EQ(c.bytes_scanned, i.bytes_scanned) << PlanToString(plan);
  EXPECT_EQ(c.rows_scanned, i.rows_scanned) << PlanToString(plan);
  EXPECT_EQ(c.partitions_scanned, i.partitions_scanned) << PlanToString(plan);
  EXPECT_EQ(c.partitions_pruned, i.partitions_pruned) << PlanToString(plan);
  EXPECT_EQ(c.rows_produced, i.rows_produced) << PlanToString(plan);
  EXPECT_EQ(c.peak_hash_bytes, i.peak_hash_bytes) << PlanToString(plan);
  // The interpreted oracle never records pipeline outcomes.
  EXPECT_TRUE(interpreted.pipelines().empty());
  return compiled;
}

// ---------------------------------------------------------------------------
// Differential fuzz: randomized chains, fixed seed.
// ---------------------------------------------------------------------------

struct FuzzColumn {
  const char* name;
  bool is_float;
  int64_t lo;  // plausible literal range for predicates
  int64_t hi;
};

struct FuzzTable {
  const char* name;
  std::vector<FuzzColumn> columns;
};

const std::vector<FuzzTable>& FuzzTables() {
  static const std::vector<FuzzTable>& tables = *new std::vector<FuzzTable>{
      {"store_sales",
       {{"ss_store_sk", false, 0, 10},
        {"ss_item_sk", false, 0, 2000},
        {"ss_quantity", false, 0, 100},
        {"ss_list_price", true, 0, 100},
        {"ss_sales_price", true, 0, 100}}},
      {"item",
       {{"i_item_sk", false, 0, 2000},
        {"i_brand_id", false, 0, 1000},
        {"i_category_id", false, 0, 10}}},
      {"date_dim",
       {{"d_date_sk", false, 2450000, 2460000},
        {"d_year", false, 1998, 2003},
        {"d_month_seq", false, 1170, 1260}}},
  };
  return tables;
}

ExprPtr RandomPredicate(std::mt19937* rng, PlanBuilder* b,
                        const FuzzColumn& col) {
  auto pick = [&](int64_t n) {
    return static_cast<int64_t>((*rng)() % static_cast<uint64_t>(n));
  };
  int64_t span = col.hi - col.lo;
  int64_t lo = col.lo + pick(span + 1);
  ExprPtr ref = b->Ref(col.name);
  ExprPtr lit = col.is_float ? eb::Dbl(static_cast<double>(lo) + 0.5)
                             : eb::Int(lo);
  switch (pick(4)) {
    case 0:
      return eb::Gt(std::move(ref), std::move(lit));
    case 1:
      return eb::Le(std::move(ref), std::move(lit));
    case 2:
      return eb::IsNotNull(std::move(ref));
    default: {
      int64_t hi = lo + pick(span + 1);
      ExprPtr hi_lit = col.is_float ? eb::Dbl(static_cast<double>(hi) + 0.5)
                                    : eb::Int(hi);
      return eb::Between(std::move(ref), std::move(lit), std::move(hi_lit));
    }
  }
}

TEST(PipelineFuzzTest, RandomChainsMatchInterpreted) {
  const Catalog& catalog = SharedTpcds(0.003);
  std::mt19937 rng(20260807);  // fixed seed: failures must reproduce
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };

  for (int iter = 0; iter < 80; ++iter) {
    const FuzzTable& table = FuzzTables()[pick(FuzzTables().size())];
    std::vector<std::string> cols;
    for (const FuzzColumn& c : table.columns) cols.push_back(c.name);
    PlanContext ctx;
    PlanBuilder b = PlanBuilder::Scan(
        &ctx, Unwrap(catalog.GetTable(table.name)), cols);

    // 1-2 filters, chained (exercises the NarrowFilter composition).
    size_t num_filters = 1 + pick(2);
    for (size_t f = 0; f < num_filters; ++f) {
      b.Filter(RandomPredicate(&rng, &b, table.columns[pick(cols.size())]));
    }

    // Half the chains re-project through arithmetic (exercises EvalSel on
    // composed expressions); the rest keep the scan layout (exercises the
    // identity fast path).
    bool projected = pick(2) == 0;
    if (projected) {
      const FuzzColumn& a = table.columns[pick(cols.size())];
      const FuzzColumn& c = table.columns[pick(cols.size())];
      b.Project({{"derived", eb::Add(b.Ref(a.name), b.Ref(c.name))},
                 {"kept", b.Ref(table.columns[0].name)}});
    }

    // A third of the chains end in an aggregate sink — scalar or grouped,
    // with an occasional mask.
    if (pick(3) == 0) {
      const char* arg = projected ? "derived" : table.columns.back().name;
      ExprPtr mask = nullptr;
      if (!projected && pick(2) == 0) {
        mask = RandomPredicate(&rng, &b, table.columns[pick(cols.size())]);
      }
      std::vector<AggSpec> specs;
      specs.push_back({"s", AggFunc::kSum, b.Ref(arg), mask, false});
      specs.push_back({"n", AggFunc::kCountStar, nullptr, nullptr, false});
      if (pick(2) == 0) {
        b.Aggregate({}, std::move(specs));  // scalar
      } else {
        const char* key = projected ? "kept" : table.columns[0].name;
        b.Aggregate({key}, std::move(specs));
      }
    }

    QueryResult compiled = ExpectCompiledMatchesInterpreted(b.Build());
    // Every fuzz chain is compilable by construction; a silent fallback
    // here means the fuzz stopped exercising the compiled path.
    bool any_compiled = false;
    for (const PipelineRecord& r : compiled.pipelines()) {
      any_compiled |= r.compiled();
    }
    EXPECT_TRUE(any_compiled)
        << "iter " << iter << " fell back: " << PlanToString(b.Build());
  }
}

// ---------------------------------------------------------------------------
// Full TPC-DS sweep, all three optimizer modes.
// ---------------------------------------------------------------------------

class PipelineTpcdsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineTpcdsTest, SweepAllModes) {
  const Catalog& catalog = SharedTpcds();
  for (const std::string& mode :
       {std::string("baseline"), std::string("fused"), std::string("spooling")}) {
    tpcds::TpcdsQuery q = Unwrap(tpcds::QueryByName(GetParam()));
    PlanContext ctx;
    PlanPtr plan = Unwrap(q.build(catalog, &ctx));
    OptimizerOptions opt = mode == "baseline" ? OptimizerOptions::Baseline()
                           : mode == "spooling" ? OptimizerOptions::Spooling()
                                                : OptimizerOptions::Fused();
    PlanPtr optimized = Unwrap(Optimizer(opt).Optimize(plan, &ctx));
    SCOPED_TRACE(GetParam() + " / " + mode);
    ExpectCompiledMatchesInterpreted(optimized);
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, PipelineTpcdsTest, ::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
                             names.push_back(q.name);
                           }
                           return names;
                         }()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Parallelism invariance (`parallel` label; TSan-covered).
// ---------------------------------------------------------------------------

TEST(PipelineParallelTest, ThreadCountInvariant) {
  const Catalog& catalog = SharedTpcds();
  // The fusion-applicable queries have the deepest compiled chains; the
  // full sweep's serial coverage above already spans the rest.
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    if (!q.fusion_applicable) continue;
    PlanContext ctx;
    PlanPtr plan = Unwrap(q.build(catalog, &ctx));
    PlanPtr optimized =
        Unwrap(Optimizer(OptimizerOptions::Fused()).Optimize(plan, &ctx));
    SCOPED_TRACE(q.name);
    QueryResult serial = ExpectCompiledMatchesInterpreted(optimized, 1);
    QueryResult wide = ExpectCompiledMatchesInterpreted(optimized, 4);
    EXPECT_TRUE(ResultsEqualOrdered(serial, wide)) << q.name;
    EXPECT_EQ(serial.metrics().bytes_scanned, wide.metrics().bytes_scanned);
    EXPECT_EQ(serial.metrics().peak_hash_bytes, wide.metrics().peak_hash_bytes);
  }
}

TEST(PipelineParallelTest, CompiledAggregateParallelMatchesSerial) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(
      &ctx, Unwrap(catalog.GetTable("store_sales")),
      {"ss_store_sk", "ss_quantity", "ss_sales_price"});
  b.Filter(eb::Between(b.Ref("ss_quantity"), eb::Int(5), eb::Int(80)));
  b.Aggregate({"ss_store_sk"},
              {{"revenue", AggFunc::kSum, b.Ref("ss_sales_price"),
                eb::Gt(b.Ref("ss_quantity"), eb::Int(40)), false},
               {"n", AggFunc::kCountStar, nullptr, nullptr, false}});
  PlanPtr plan = b.Build();
  QueryResult serial = ExpectCompiledMatchesInterpreted(plan, 1);
  QueryResult wide = ExpectCompiledMatchesInterpreted(plan, 4);
  // No Sort root pins the group order, and hash-map merge order legitimately
  // differs across thread counts (in both engines — exec_parallel_test makes
  // the same concession). The byte-identity contract is compiled vs
  // interpreted at equal parallelism, asserted by the two calls above.
  EXPECT_TRUE(ResultsEquivalent(serial, wide));
  EXPECT_EQ(serial.metrics().bytes_scanned, wide.metrics().bytes_scanned);
}

// ---------------------------------------------------------------------------
// Compilation outcomes: records, fallback taxonomy, observability.
// ---------------------------------------------------------------------------

TEST(PipelineRecordTest, CompiledChainRecordsOpsFused) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(
      &ctx, Unwrap(catalog.GetTable("store_sales")),
      {"ss_quantity", "ss_sales_price"});
  b.Filter(eb::Gt(b.Ref("ss_quantity"), eb::Int(10)));
  b.Aggregate({}, {{"total", AggFunc::kSum, b.Ref("ss_sales_price"), nullptr,
                    false}});
  QueryResult r = Unwrap(ExecutePlan(b.Build()));
  ASSERT_EQ(r.pipelines().size(), 1u);
  const PipelineRecord& rec = r.pipelines()[0];
  EXPECT_TRUE(rec.compiled());
  EXPECT_EQ(rec.root_kind, "Aggregate");
  EXPECT_EQ(rec.ops_fused, 3);  // aggregate + filter + scan
  EXPECT_EQ(rec.root_op_id, 0);
}

TEST(PipelineRecordTest, JoinFedChainFallsBackWithSourceReason) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanBuilder ss = PlanBuilder::Scan(
      &ctx, Unwrap(catalog.GetTable("store_sales")),
      {"ss_item_sk", "ss_quantity"});
  PlanBuilder item = PlanBuilder::Scan(&ctx, Unwrap(catalog.GetTable("item")),
                                       {"i_item_sk"});
  ss.JoinOn(JoinType::kInner, item, {{"ss_item_sk", "i_item_sk"}});
  // Chain head above the join: its source is a breaker, so it must fall
  // back and say why.
  ss.Filter(eb::Gt(ss.Ref("ss_quantity"), eb::Int(90)));
  QueryResult r = Unwrap(ExecutePlan(ss.Build()));
  bool saw_join_fallback = false;
  for (const PipelineRecord& rec : r.pipelines()) {
    if (!rec.compiled() && rec.fallback == "source-join") {
      saw_join_fallback = true;
    }
  }
  EXPECT_TRUE(saw_join_fallback);
}

TEST(PipelineRecordTest, DisablingCompilationRecordsNothing) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(
      &ctx, Unwrap(catalog.GetTable("item")), {"i_item_sk"});
  b.Filter(eb::Gt(b.Ref("i_item_sk"), eb::Int(0)));
  QueryResult r =
      Unwrap(ExecutePlan(b.Build(), {.compile_pipelines = false}));
  EXPECT_TRUE(r.pipelines().empty());
}

TEST(PipelineObsTest, ExplainAnalyzeAnnotatesPipelines) {
  const Catalog& catalog = SharedTpcds();
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Scan(
      &ctx, Unwrap(catalog.GetTable("store_sales")),
      {"ss_quantity", "ss_sales_price"});
  b.Filter(eb::Gt(b.Ref("ss_quantity"), eb::Int(10)));
  PlanPtr plan = b.Build();
  QueryResult r = Unwrap(ExecutePlan(plan));
  std::string text = ExplainAnalyze(plan, r);
  EXPECT_NE(text.find("pipeline=0"), std::string::npos) << text;
  EXPECT_NE(text.find("pipelines:"), std::string::npos) << text;
  EXPECT_NE(text.find("ops_fused=2"), std::string::npos) << text;

  QueryProfile profile = MakeQueryProfile("chain", "fused", plan, r);
  std::string json = ProfileToJson(profile);
  EXPECT_NE(json.find("\"pipelines\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ops_fused\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pipeline\":0"), std::string::npos) << json;
}

TEST(PipelineObsTest, ServiceCountersRecordOutcomes) {
  const Catalog& catalog = SharedTpcds();
  MetricsRegistry registry;
  {
    PlanContext ctx;
    PlanBuilder b = PlanBuilder::Scan(
        &ctx, Unwrap(catalog.GetTable("item")), {"i_item_sk"});
    b.Filter(eb::Gt(b.Ref("i_item_sk"), eb::Int(0)));
    Unwrap(ExecutePlan(b.Build(), {.metrics = &registry}));
  }
  {
    PlanContext ctx;
    PlanBuilder ss = PlanBuilder::Scan(
        &ctx, Unwrap(catalog.GetTable("store_sales")), {"ss_item_sk"});
    PlanBuilder item = PlanBuilder::Scan(
        &ctx, Unwrap(catalog.GetTable("item")), {"i_item_sk"});
    ss.JoinOn(JoinType::kInner, item, {{"ss_item_sk", "i_item_sk"}});
    ss.Filter(eb::Gt(ss.Ref("ss_item_sk"), eb::Int(0)));
    Unwrap(ExecutePlan(ss.Build(), {.metrics = &registry}));
  }
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Counter("fusiondb_exec_pipelines_compiled_total"), 1);
  EXPECT_EQ(snap.Counter(
                "fusiondb_exec_pipeline_fallbacks_total{reason=\"source-join\"}"),
            1);
}

}  // namespace
}  // namespace fusiondb
