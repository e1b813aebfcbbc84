// Columnar engine tests: unit tests for the batch primitives (arena,
// dictionary, bitmaps, grouping) and randomized differential tests pinning
// the deterministic columnar engine to its row-at-a-time reference —
// bit-identical relations, rows AND order. (The LICM operators have one
// implementation; their reference is possible-world enumeration, in
// licm_oracle_test.)
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relational/arena.h"
#include "relational/batch.h"
#include "relational/column.h"
#include "relational/engine.h"

namespace licm {
namespace {

using rel::Column;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

TEST(SchemaIndexOf, MapLookupMatchesPosition) {
  const Schema s({{"tid", ValueType::kInt},
                  {"item", ValueType::kString},
                  {"price", ValueType::kDouble}});
  ASSERT_TRUE(s.IndexOf("tid").ok());
  EXPECT_EQ(*s.IndexOf("tid"), 0u);
  EXPECT_EQ(*s.IndexOf("item"), 1u);
  EXPECT_EQ(*s.IndexOf("price"), 2u);
  EXPECT_TRUE(s.Has("price"));
  EXPECT_FALSE(s.Has("nope"));
  EXPECT_EQ(s.IndexOf("nope").status().code(), StatusCode::kNotFound);
}

TEST(SchemaIndexOf, DuplicateNamesResolveToFirst) {
  // Product/join renaming collisions can produce duplicate names; the
  // memoized lookup must keep the old linear scan's first-match answer.
  const Schema s({{"a", ValueType::kInt},
                  {"b", ValueType::kInt},
                  {"a", ValueType::kDouble}});
  EXPECT_EQ(*s.IndexOf("a"), 0u);
  EXPECT_EQ(*s.IndexOf("b"), 1u);
}

TEST(Arena, AlignsAndPreservesAcrossGrowth) {
  rel::Arena arena;
  std::vector<int64_t*> ptrs;
  for (int i = 0; i < 100; ++i) {
    int64_t* p = arena.AllocArray<int64_t>(1000);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(int64_t), 0u);
    p[0] = i;
    p[999] = -i;
    ptrs.push_back(p);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ptrs[i][0], i);
    EXPECT_EQ(ptrs[i][999], -i);
  }
  EXPECT_GE(arena.bytes_allocated(), 100u * 1000u * sizeof(int64_t));
}

TEST(StringDictionary, InternDedupsAndRoundTrips) {
  rel::StringDictionary dict;
  const int64_t a = dict.Intern("apple");
  const int64_t b = dict.Intern("banana");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("apple"), a);
  EXPECT_EQ(dict.str(a), "apple");
  EXPECT_EQ(dict.str(b), "banana");
  EXPECT_EQ(dict.Find("banana"), b);
  EXPECT_EQ(dict.Find("cherry"), -1);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(Bitmap, CountSetAndIntersect) {
  rel::Arena arena;
  const size_t rows = 130;  // two full words + a 2-bit tail
  uint64_t* a = rel::AllocBitmap(rows, &arena);
  EXPECT_EQ(rel::BitmapCount(a, rows), 0u);
  for (size_t i = 0; i < rows; i += 3) rel::BitmapSet(a, i);
  EXPECT_EQ(rel::BitmapCount(a, rows), (rows + 2) / 3);
  EXPECT_TRUE(rel::BitmapTest(a, 129));
  EXPECT_FALSE(rel::BitmapTest(a, 128));

  uint64_t* b = rel::AllocBitmap(rows, &arena);
  for (size_t i = 0; i < rows; i += 2) rel::BitmapSet(b, i);
  rel::BitmapAnd(a, b, rows);  // multiples of 6
  EXPECT_EQ(rel::BitmapCount(a, rows), rows / 6 + 1);
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_EQ(rel::BitmapTest(a, i), i % 6 == 0) << i;
  }
}

TEST(GroupBy, FirstSeenOrderAndContiguousAscendingRuns) {
  rel::Relation rows(Schema({{"k", ValueType::kInt}}));
  const std::vector<int64_t> keys = {7, 3, 7, 9, 3, 7};
  for (int64_t k : keys) rows.AppendUnchecked({Value(k)});
  const rel::ColumnTable table = rel::ColumnTable::FromRows(rows, nullptr);
  rel::Arena arena;
  const rel::BatchView view = rel::TableView(table);
  const rel::Grouping g = rel::GroupBy(view, {0}, &arena);
  ASSERT_EQ(g.num_groups, 3u);
  // Dense ids in first-seen order: 7 -> 0, 3 -> 1, 9 -> 2.
  EXPECT_EQ(g.rep_row[0], 0u);
  EXPECT_EQ(g.rep_row[1], 1u);
  EXPECT_EQ(g.rep_row[2], 3u);
  const std::vector<std::vector<uint32_t>> want = {{0, 2, 5}, {1, 4}, {3}};
  for (uint32_t gid = 0; gid < 3; ++gid) {
    std::vector<uint32_t> run(g.run_rows + g.run_begin[gid],
                              g.run_rows + g.run_begin[gid + 1]);
    EXPECT_EQ(run, want[gid]) << "group " << gid;
  }
}

TEST(GroupBy, DoubleKeysMergeSignedZeroNeverNaN) {
  rel::Relation rows(Schema({{"x", ValueType::kDouble}}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double x : {0.0, -0.0, nan, nan, 1.5}) rows.AppendUnchecked({Value(x)});
  const rel::ColumnTable table = rel::ColumnTable::FromRows(rows, nullptr);
  rel::Arena arena;
  const rel::Grouping g = rel::GroupBy(rel::TableView(table), {0}, &arena);
  // 0.0 == -0.0 merges; each NaN row is its own group (NaN != NaN), the
  // same equivalence the row engine's Value == gives.
  EXPECT_EQ(g.num_groups, 4u);
}

// ---------------------------------------------------------------------------
// Randomized differential: deterministic relational engine.

// Random database with one TRANSITEM-style relation (int, string, int) and
// one small (string, double) side relation for join/product coverage.
rel::Database RandomDatabase(Rng* rng) {
  rel::Database db;
  const Schema trans({{"tid", ValueType::kInt},
                      {"item", ValueType::kString},
                      {"val", ValueType::kInt}});
  rel::Relation t(trans);
  const int rows = static_cast<int>(rng->UniformInt(0, 30));
  for (int i = 0; i < rows; ++i) {
    t.AppendUnchecked({Value(rng->UniformInt(1, 5)),
                       Value("i" + std::to_string(rng->UniformInt(0, 4))),
                       Value(rng->UniformInt(0, 9))});
  }
  LICM_CHECK_OK(db.Add("t", std::move(t)));

  const Schema items({{"item", ValueType::kString},
                      {"price", ValueType::kDouble}});
  rel::Relation s(items);
  const int srows = static_cast<int>(rng->UniformInt(0, 8));
  for (int i = 0; i < srows; ++i) {
    s.AppendUnchecked({Value("i" + std::to_string(rng->UniformInt(0, 4))),
                       Value(rng->UniformInt(0, 40) * 0.25)});
  }
  LICM_CHECK_OK(db.Add("s", std::move(s)));
  return db;
}

rel::QueryNodePtr RandomTree(Rng* rng, int depth);

rel::QueryNodePtr RandomLeaf(Rng* rng) {
  return rel::Scan(rng->Bernoulli(0.8) ? "t" : "s");
}

rel::QueryNodePtr RandomTree(Rng* rng, int depth) {
  if (depth <= 0) return RandomLeaf(rng);
  switch (rng->Uniform(6)) {
    case 0: {
      const std::vector<rel::CmpOp> ops = {rel::CmpOp::kEq, rel::CmpOp::kNe,
                                           rel::CmpOp::kLt, rel::CmpOp::kLe,
                                           rel::CmpOp::kGt, rel::CmpOp::kGe};
      const rel::CmpOp op = ops[rng->Uniform(ops.size())];
      if (rng->Bernoulli(0.5)) {
        return rel::Select(rel::Scan("t"),
                           {{"tid", op, Value(rng->UniformInt(1, 5))}});
      }
      return rel::Select(
          rel::Scan("t"),
          {{"item", op, Value("i" + std::to_string(rng->UniformInt(0, 4)))}});
    }
    case 1:
      return rel::Project(RandomTree(rng, depth - 1) /* over t only */,
                          {"tid"});
    case 2:
      return rel::Intersect(rel::Scan("t"), RandomTree(rng, depth - 1));
    case 3:
      return rel::Product(RandomTree(rng, depth - 1), rel::Scan("s"));
    case 4:
      return rel::Join(rel::Scan("t"), rel::Scan("s"), {{"item", "item"}});
    default:
      return rel::CountPredicate(rel::Scan("t"), "tid",
                                 rng->Bernoulli(0.5) ? rel::CmpOp::kGe
                                                     : rel::CmpOp::kLe,
                                 rng->UniformInt(0, 3));
  }
}

// Trees from RandomTree can be structurally invalid (projecting a column a
// product renamed, intersecting mismatched schemas); both engines must
// then fail identically.
TEST(ColumnarRelationalDiff, BitIdenticalRelationsOnRandomQueries) {
  const uint64_t base_seed = FuzzSeedFromEnv(0xC01D0DEULL);
  int compared = 0;
  for (int i = 0; i < 400; ++i) {
    Rng rng(base_seed + static_cast<uint64_t>(i));
    const rel::Database db = RandomDatabase(&rng);
    // Project only over trees rooted at t-scans; keep trees simple enough
    // that most are valid while exercising every operator.
    const rel::QueryNodePtr q = RandomTree(&rng, 2);
    const auto columnar = rel::Evaluate(*q, db, rel::EvalEngine::kColumnar);
    const auto row = rel::Evaluate(*q, db, rel::EvalEngine::kRow);
    ASSERT_EQ(columnar.ok(), row.ok())
        << "seed " << base_seed + i << ": columnar="
        << (columnar.ok() ? "ok" : columnar.status().ToString()) << " row="
        << (row.ok() ? "ok" : row.status().ToString()) << "\n"
        << q->ToString();
    if (!columnar.ok()) {
      EXPECT_EQ(columnar.status().ToString(), row.status().ToString());
      continue;
    }
    ++compared;
    ASSERT_TRUE(columnar->schema() == row->schema())
        << "seed " << base_seed + i << "\n" << q->ToString();
    ASSERT_EQ(columnar->size(), row->size())
        << "seed " << base_seed + i << "\n" << q->ToString();
    // Bit-identical: same rows in the same order, not just set-equal.
    for (size_t r = 0; r < row->size(); ++r) {
      ASSERT_EQ(columnar->rows()[r], row->rows()[r])
          << "seed " << base_seed + i << " row " << r << "\n"
          << q->ToString();
    }
  }
  // The generator must not degenerate into all-invalid trees.
  EXPECT_GT(compared, 200);
}

TEST(ColumnarRelationalDiff, AggregatesMatchRowEngine) {
  const uint64_t base_seed = FuzzSeedFromEnv(0xA66ULL);
  for (int i = 0; i < 200; ++i) {
    Rng rng(base_seed + static_cast<uint64_t>(i));
    const rel::Database db = RandomDatabase(&rng);
    rel::QueryNodePtr body = RandomTree(&rng, 2);
    rel::QueryNodePtr q;
    switch (rng.Uniform(4)) {
      case 0: q = rel::CountStar(body); break;
      case 1: q = rel::Sum(rel::Scan("t"), "val"); break;
      case 2: q = rel::Min(rel::Scan("s"), "price"); break;
      default: q = rel::Max(rel::Scan("t"), "val"); break;
    }
    const auto columnar =
        rel::EvaluateAggregate(*q, db, rel::EvalEngine::kColumnar);
    const auto row = rel::EvaluateAggregate(*q, db, rel::EvalEngine::kRow);
    ASSERT_EQ(columnar.ok(), row.ok()) << "seed " << base_seed + i;
    if (!columnar.ok()) {
      EXPECT_EQ(columnar.status().ToString(), row.status().ToString());
      continue;
    }
    // Float sums accumulate in the same order, so exact equality holds.
    EXPECT_EQ(*columnar, *row) << "seed " << base_seed + i;
  }
}

}  // namespace
}  // namespace licm
