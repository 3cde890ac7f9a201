// KeyedHashTable: the executor's one hash table (exec/keyed_table.h). Id
// order, NULL semantics per operator, the per-column key format, growth,
// and the memory charge the keyed operators report.
#include <gtest/gtest.h>

#include <set>

#include "exec/agg_build.h"
#include "exec/keyed_table.h"
#include "test_util.h"

namespace fusiondb {
namespace {

using internal::KeyColumns;
using internal::KeyedHashTable;
using testutil::MustExecute;

Column Ints(const std::vector<std::optional<int64_t>>& values) {
  Column c(DataType::kInt64);
  for (const auto& v : values) {
    if (v.has_value()) {
      c.AppendInt(*v);
    } else {
      c.AppendNull();
    }
  }
  return c;
}

Column Strings(const std::vector<std::string>& values) {
  Column c(DataType::kString);
  for (const std::string& v : values) c.AppendString(v);
  return c;
}

TEST(KeyedHashTableTest, IdsFollowFirstSeenOrder) {
  Chunk chunk;
  chunk.columns.push_back(Ints({50, 30, 50, 70, 30, 10}));
  std::vector<const Column*> cols = KeyColumns(chunk, {0});
  KeyedHashTable table;
  std::vector<uint32_t> ids;
  std::vector<bool> inserted;
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    KeyedHashTable::Insertion ins = table.Insert(cols, r);
    ids.push_back(ins.id);
    inserted.push_back(ins.inserted);
  }
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 0, 2, 1, 3}));
  EXPECT_EQ(inserted,
            (std::vector<bool>{true, true, false, true, false, true}));
  EXPECT_EQ(table.size(), 4u);
  // Decoding the keys in id order gives the first-seen order back.
  std::vector<Column> out;
  out.emplace_back(DataType::kInt64);
  for (uint32_t id = 0; id < table.size(); ++id) table.AppendKey(id, 1, &out);
  EXPECT_EQ(out[0].GetValue(0), Value::Int64(50));
  EXPECT_EQ(out[0].GetValue(1), Value::Int64(30));
  EXPECT_EQ(out[0].GetValue(2), Value::Int64(70));
  EXPECT_EQ(out[0].GetValue(3), Value::Int64(10));
}

TEST(KeyedHashTableTest, GroupByEmitsGroupsInFirstSeenOrder) {
  PlanContext ctx;
  PlanBuilder b = PlanBuilder::Values(
      &ctx, {"g"}, {DataType::kString},
      {{Value::String("c")}, {Value::String("a")}, {Value::String("c")},
       {Value::Null(DataType::kString)}, {Value::String("b")}});
  b.Aggregate({"g"}, {{"n", AggFunc::kCountStar, nullptr, nullptr, false}});
  QueryResult r = MustExecute(b.Build());
  ASSERT_EQ(r.num_rows(), 4);
  EXPECT_EQ(r.At(0, 0), Value::String("c"));
  EXPECT_EQ(r.At(0, 1), Value::Int64(2));
  EXPECT_EQ(r.At(1, 0), Value::String("a"));
  EXPECT_TRUE(r.At(2, 0).is_null());
  EXPECT_EQ(r.At(3, 0), Value::String("b"));
}

TEST(KeyedHashTableTest, NullKeysGroupTogetherInTheTable) {
  Chunk chunk;
  chunk.columns.push_back(Ints({std::nullopt, 1, std::nullopt}));
  chunk.columns.push_back(Ints({7, std::nullopt, 7}));
  std::vector<const Column*> cols = KeyColumns(chunk, {0, 1});
  KeyedHashTable table;
  EXPECT_TRUE(KeyedHashTable::AnyNull(cols, 0));
  EXPECT_TRUE(KeyedHashTable::AnyNull(cols, 1));
  EXPECT_EQ(table.Insert(cols, 0).id, 0u);
  EXPECT_EQ(table.Insert(cols, 1).id, 1u);
  KeyedHashTable::Insertion again = table.Insert(cols, 2);
  EXPECT_FALSE(again.inserted);  // NULL == NULL for grouping
  EXPECT_EQ(again.id, 0u);
}

TEST(KeyedHashTableTest, NullKeysNeverJoinButGroupAndDeduplicate) {
  auto values = [](PlanContext* ctx, const std::string& name) {
    return PlanBuilder::Values(
        ctx, {name}, {DataType::kInt64},
        {{Value::Null(DataType::kInt64)},
         {Value::Int64(1)},
         {Value::Null(DataType::kInt64)}});
  };
  PlanContext ctx;
  PlanBuilder join = values(&ctx, "l");
  join.JoinOn(JoinType::kInner, values(&ctx, "r"), {{"l", "r"}});
  EXPECT_EQ(MustExecute(join.Build()).num_rows(), 1);  // only 1 = 1

  PlanBuilder group = values(&ctx, "g");
  group.Aggregate({"g"}, {{"n", AggFunc::kCountStar, nullptr, nullptr, false}});
  QueryResult grouped = MustExecute(group.Build());
  ASSERT_EQ(grouped.num_rows(), 2);
  EXPECT_TRUE(grouped.At(0, 0).is_null());
  EXPECT_EQ(grouped.At(0, 1), Value::Int64(2));

  // Deduplication (GROUP BY without aggregates) over a two-column key: NULL
  // equals NULL in the same position only, so (NULL, 1) repeats but
  // (1, NULL) is a key of its own.
  Value null = Value::Null(DataType::kInt64);
  PlanBuilder pairs = PlanBuilder::Values(
      &ctx, {"a", "b"}, {DataType::kInt64, DataType::kInt64},
      {{null, Value::Int64(1)},
       {Value::Int64(1), null},
       {null, Value::Int64(1)}});
  pairs.Aggregate({"a", "b"}, {});
  EXPECT_EQ(MustExecute(pairs.Build()).num_rows(), 2);
}

TEST(KeyedHashTableTest, StringColumnsAreLengthPrefixed) {
  // Concatenated without a per-column length these pairs all read "abc".
  Chunk chunk;
  chunk.columns.push_back(Strings({"a", "ab", "", "abc", "a"}));
  chunk.columns.push_back(Strings({"bc", "c", "abc", "", "bc"}));
  std::vector<const Column*> cols = KeyColumns(chunk, {0, 1});
  KeyedHashTable table;
  for (size_t r = 0; r < 4; ++r) {
    KeyedHashTable::Insertion ins = table.Insert(cols, r);
    EXPECT_TRUE(ins.inserted) << r;
    EXPECT_EQ(ins.id, r);
  }
  EXPECT_EQ(table.Find(cols, 4), 0u);
  std::vector<Column> out;
  out.emplace_back(DataType::kString);
  out.emplace_back(DataType::kString);
  for (uint32_t id = 0; id < table.size(); ++id) table.AppendKey(id, 2, &out);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(out[0].StringAt(r), chunk.columns[0].StringAt(r));
    EXPECT_EQ(out[1].StringAt(r), chunk.columns[1].StringAt(r));
  }
}

TEST(KeyedHashTableTest, IdsSurviveRehashes) {
  constexpr int64_t kKeys = 20000;  // the slot array doubles about 12 times
  Chunk chunk;
  chunk.columns.emplace_back(DataType::kInt64);
  chunk.columns.emplace_back(DataType::kString);
  for (int64_t i = 0; i < kKeys; ++i) {
    chunk.columns[0].AppendInt(i * 7919 % 100003);
    chunk.columns[1].AppendString(std::string(static_cast<size_t>(i % 5), 'x'));
  }
  std::vector<const Column*> cols = KeyColumns(chunk, {0, 1});
  KeyedHashTable table;
  int64_t bytes_before = table.ByteSize();
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    ASSERT_EQ(table.Insert(cols, r).id, r);
  }
  EXPECT_GT(table.ByteSize(), bytes_before);
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    ASSERT_EQ(table.Find(cols, r), r);
    ASSERT_FALSE(table.Insert(cols, r).inserted);
  }
  Chunk absent;
  absent.columns.push_back(Ints({100003}));
  absent.columns.push_back(Strings({""}));
  EXPECT_EQ(table.Find(KeyColumns(absent, {0, 1}), 0), KeyedHashTable::kNoId);
}

TEST(KeyedHashTableTest, ByteSizeDependsOnKeysNotOnArrivalOrder) {
  Chunk chunk;
  chunk.columns.push_back(Strings({"a", std::string(25, 'b'), "cc", "a"}));
  std::vector<const Column*> cols = KeyColumns(chunk, {0});
  KeyedHashTable forward;
  KeyedHashTable backward;
  for (size_t r = 0; r < 4; ++r) forward.Insert(cols, r);
  for (size_t r = 4; r-- > 0;) backward.Insert(cols, r);
  EXPECT_EQ(forward.ByteSize(), backward.ByteSize());
}

/// Inserts the key column of `values` into a fresh table, as the operators
/// do, and returns its ByteSize().
int64_t TableBytes(const std::vector<std::optional<int64_t>>& values) {
  Chunk chunk;
  chunk.columns.push_back(Ints(values));
  std::vector<const Column*> cols = KeyColumns(chunk, {0});
  KeyedHashTable table;
  for (size_t r = 0; r < chunk.num_rows(); ++r) table.Insert(cols, r);
  return table.ByteSize();
}

TEST(KeyedHashTableTest, OperatorsChargeTheTableByteSize) {
  std::vector<std::optional<int64_t>> keys;
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 300; ++i) {
    keys.push_back(i % 37 == 0 ? std::nullopt : std::optional<int64_t>(i % 90));
    rows.push_back({keys.back().has_value() ? Value::Int64(*keys.back())
                                            : Value::Null(DataType::kInt64)});
  }
  std::vector<std::optional<int64_t>> join_keys;
  std::set<int64_t> distinct;
  for (const std::optional<int64_t>& k : keys) {
    if (!k.has_value()) continue;
    join_keys.push_back(k);
    distinct.insert(*k);
  }

  // A grouping without aggregates charges its table of the keys (NULL is
  // one group) and the entry vector indexed by key id, grown as the
  // operator grows it; there are no aggregate states.
  PlanContext ctx;
  PlanBuilder group =
      PlanBuilder::Values(&ctx, {"k"}, {DataType::kInt64}, rows);
  group.Aggregate({"k"}, {});
  std::vector<internal::GroupEntry> entries;
  for (size_t g = 0; g < distinct.size() + 1; ++g) entries.emplace_back();
  EXPECT_EQ(MustExecute(group.Build(), /*chunk_size=*/64)
                .metrics()
                .peak_hash_bytes,
            TableBytes(keys) + static_cast<int64_t>(
                                   entries.capacity() *
                                   sizeof(internal::GroupEntry)));

  // A join charges its buffered build columns, its table of the non-NULL
  // build keys, and one chain link per key id and per build row.
  PlanBuilder probe = PlanBuilder::Values(&ctx, {"p"}, {DataType::kInt64},
                                          {{Value::Int64(1)}});
  probe.JoinOn(JoinType::kInner,
               PlanBuilder::Values(&ctx, {"b"}, {DataType::kInt64}, rows),
               {{"p", "b"}});
  int64_t chains = static_cast<int64_t>((distinct.size() + keys.size()) *
                                        sizeof(uint32_t));
  EXPECT_EQ(MustExecute(probe.Build()).metrics().peak_hash_bytes,
            Ints(keys).ByteSize() + TableBytes(join_keys) + chains);
}

}  // namespace
}  // namespace fusiondb
