// Tests for the extension operators beyond the paper's core: mid-tree SUM
// predicates (weighted Algorithm 4) and top-level MIN/MAX aggregates with
// case-based bounds. Each is validated against exhaustive possible-world
// enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "licm/evaluator.h"
#include "licm/worlds.h"
#include "licm_eval_helper.h"
#include "relational/engine.h"

namespace licm {
namespace {

using rel::CmpOp;
using rel::Value;
using rel::ValueType;

rel::Schema PricedSchema() {
  return rel::Schema({{"tid", ValueType::kInt},
                      {"item", ValueType::kInt},
                      {"price", ValueType::kInt}});
}

// ---- SumPredicate unit behaviour ----

TEST(SumPredicate, DeterministicEngineMatchesHandComputation) {
  rel::Database db;
  rel::Relation r(PricedSchema());
  // T1 prices: 3 + 5 = 8; T2: 2; T3: 6 + 6(dup item? distinct items) = 12.
  r.AppendUnchecked({int64_t{1}, int64_t{10}, int64_t{3}});
  r.AppendUnchecked({int64_t{1}, int64_t{11}, int64_t{5}});
  r.AppendUnchecked({int64_t{2}, int64_t{10}, int64_t{2}});
  r.AppendUnchecked({int64_t{3}, int64_t{12}, int64_t{6}});
  r.AppendUnchecked({int64_t{3}, int64_t{13}, int64_t{6}});
  LICM_CHECK_OK(db.Add("r", std::move(r)));
  auto q = rel::CountStar(
      rel::SumPredicate(rel::Scan("r"), "tid", "price", CmpOp::kGe, 8));
  auto v = rel::EvaluateAggregate(*q, db);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(*v, 2.0);  // T1 (8) and T3 (12)
}

TEST(SumPredicate, LicmEncodingTracksWeightedSum) {
  // One group: certain weight 2, maybe weights 3 (b0) and 5 (b1).
  // SUM >= 6 holds iff 2 + 3 b0 + 5 b1 >= 6 iff b1 = 1 or (b0 = 1 and ...)
  // -> exactly when 3 b0 + 5 b1 >= 4.
  LicmDatabase db;
  LicmRelation r(PricedSchema());
  BVar b0 = db.pool().New(), b1 = db.pool().New();
  r.AppendUnchecked({int64_t{1}, int64_t{0}, int64_t{2}}, Ext::Certain());
  r.AppendUnchecked({int64_t{1}, int64_t{1}, int64_t{3}}, Ext::Maybe(b0));
  r.AppendUnchecked({int64_t{1}, int64_t{2}, int64_t{5}}, Ext::Maybe(b1));
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto out = EvaluateToRelation(
      *rel::SumPredicate(rel::Scan("r"), "tid", "price", CmpOp::kGe, 6), &db);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  ASSERT_FALSE(out->ext(0).certain());
  const BVar derived = out->ext(0).var();
  auto worlds = EnumerateValidAssignments(db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  ASSERT_EQ(worlds->size(), 4u);
  for (const auto& a : *worlds) {
    const int sum = 2 + 3 * a[b0] + 5 * a[b1];
    EXPECT_EQ(a[derived], static_cast<uint8_t>(sum >= 6));
  }
}

TEST(SumPredicate, CertainAndExcludedCases) {
  LicmDatabase db;
  LicmRelation r(PricedSchema());
  BVar b = db.pool().New();
  // T1: certain sum 10 -> SUM >= 8 certain.
  r.AppendUnchecked({int64_t{1}, int64_t{0}, int64_t{10}}, Ext::Certain());
  // T2: max possible 5 -> SUM >= 8 impossible.
  r.AppendUnchecked({int64_t{2}, int64_t{0}, int64_t{5}}, Ext::Maybe(b));
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto out = EvaluateToRelation(
      *rel::SumPredicate(rel::Scan("r"), "tid", "price", CmpOp::kGe, 8), &db);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_TRUE(out->ext(0).certain());
}

TEST(SumPredicate, RejectsNegativeAndNonIntWeights) {
  LicmDatabase db;
  LicmRelation r(PricedSchema());
  r.AppendUnchecked({int64_t{1}, int64_t{0}, int64_t{-2}}, Ext::Certain());
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto negative = EvaluateToRelation(
      *rel::SumPredicate(rel::Scan("r"), "tid", "price", CmpOp::kGe, 1), &db);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kUnimplemented);
  LicmRelation s(rel::Schema(
      {{"tid", ValueType::kInt}, {"w", ValueType::kDouble}}));
  s.AppendUnchecked({int64_t{1}, 0.5}, Ext::Certain());
  LICM_CHECK_OK(db.AddRelation("s", std::move(s)));
  auto non_int = EvaluateToRelation(
      *rel::SumPredicate(rel::Scan("s"), "tid", "w", CmpOp::kGe, 1), &db);
  ASSERT_FALSE(non_int.ok());
  EXPECT_EQ(non_int.status().code(), StatusCode::kInvalidArgument);
}

// ---- MIN/MAX unit behaviour ----

TEST(MinMax, DeterministicEngine) {
  rel::Database db;
  rel::Relation r(PricedSchema());
  r.AppendUnchecked({int64_t{1}, int64_t{0}, int64_t{7}});
  r.AppendUnchecked({int64_t{2}, int64_t{1}, int64_t{3}});
  LICM_CHECK_OK(db.Add("r", std::move(r)));
  EXPECT_DOUBLE_EQ(
      *rel::EvaluateAggregate(*rel::Max(rel::Scan("r"), "price"), db), 7.0);
  EXPECT_DOUBLE_EQ(
      *rel::EvaluateAggregate(*rel::Min(rel::Scan("r"), "price"), db), 3.0);
  rel::Database empty_db;
  LICM_CHECK_OK(empty_db.Add("r", rel::Relation(PricedSchema())));
  EXPECT_FALSE(
      rel::EvaluateAggregate(*rel::Max(rel::Scan("r"), "price"), empty_db)
          .ok());
}

TEST(MinMax, BoundsOverMutuallyExclusiveTuples) {
  // Prices 3 and 9, mutually exclusive: MAX is 3 or 9; MIN likewise.
  LicmDatabase db;
  LicmRelation r(PricedSchema());
  BVar b0 = db.pool().New(), b1 = db.pool().New();
  r.AppendUnchecked({int64_t{1}, int64_t{0}, int64_t{3}}, Ext::Maybe(b0));
  r.AppendUnchecked({int64_t{2}, int64_t{1}, int64_t{9}}, Ext::Maybe(b1));
  db.constraints().AddMutualExclusion(b0, b1);
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));

  auto mx = AnswerAggregate(*rel::Max(rel::Scan("r"), "price"), db);
  ASSERT_TRUE(mx.ok()) << mx.status().ToString();
  EXPECT_TRUE(mx->is_minmax);
  EXPECT_DOUBLE_EQ(mx->minmax.lo, 3.0);
  EXPECT_DOUBLE_EQ(mx->minmax.hi, 9.0);
  EXPECT_FALSE(mx->minmax.may_be_empty);  // exactly one always present

  auto mn = AnswerAggregate(*rel::Min(rel::Scan("r"), "price"), db);
  ASSERT_TRUE(mn.ok());
  EXPECT_DOUBLE_EQ(mn->minmax.lo, 3.0);
  EXPECT_DOUBLE_EQ(mn->minmax.hi, 9.0);
}

TEST(MinMax, CertainTuplePinsTheTameSide) {
  // Certain price 5 plus maybe price 9: MAX in [5, 9], never empty.
  LicmDatabase db;
  LicmRelation r(PricedSchema());
  BVar b = db.pool().New();
  r.AppendUnchecked({int64_t{1}, int64_t{0}, int64_t{5}}, Ext::Certain());
  r.AppendUnchecked({int64_t{2}, int64_t{1}, int64_t{9}}, Ext::Maybe(b));
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto mx = AnswerAggregate(*rel::Max(rel::Scan("r"), "price"), db);
  ASSERT_TRUE(mx.ok());
  EXPECT_DOUBLE_EQ(mx->minmax.lo, 5.0);
  EXPECT_DOUBLE_EQ(mx->minmax.hi, 9.0);
  EXPECT_FALSE(mx->minmax.may_be_empty);
}

TEST(MinMax, DetectsPossibleAndCertainEmptiness) {
  LicmDatabase db;
  LicmRelation r(PricedSchema());
  BVar b = db.pool().New();
  r.AppendUnchecked({int64_t{1}, int64_t{0}, int64_t{5}}, Ext::Maybe(b));
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto mx = AnswerAggregate(*rel::Max(rel::Scan("r"), "price"), db);
  ASSERT_TRUE(mx.ok());
  EXPECT_TRUE(mx->minmax.may_be_empty);
  EXPECT_FALSE(mx->minmax.always_empty);

  // Force the tuple out: always empty.
  LicmDatabase db2;
  LicmRelation r2(PricedSchema());
  BVar b2 = db2.pool().New();
  r2.AppendUnchecked({int64_t{1}, int64_t{0}, int64_t{5}}, Ext::Maybe(b2));
  db2.constraints().AddFix(b2, 0);
  LICM_CHECK_OK(db2.AddRelation("r", std::move(r2)));
  auto mx2 = AnswerAggregate(*rel::Max(rel::Scan("r"), "price"), db2);
  ASSERT_TRUE(mx2.ok());
  EXPECT_TRUE(mx2->minmax.always_empty);
}

// ---- Oracle sweeps ----

// Random priced LICM databases; SumPredicate and MIN/MAX answers must
// match exhaustive enumeration.
class ExtensionOracle : public ::testing::TestWithParam<int> {};

struct PricedDb {
  LicmDatabase db;
  uint32_t num_vars = 0;
};

PricedDb MakePricedDb(Rng* rng) {
  PricedDb out;
  LicmRelation r(PricedSchema());
  std::vector<BVar> vars;
  const int tids = 2 + static_cast<int>(rng->Uniform(3));
  int64_t item = 0;
  for (int tid = 1; tid <= tids; ++tid) {
    const int n = 1 + static_cast<int>(rng->Uniform(3));
    for (int i = 0; i < n; ++i) {
      rel::Tuple t{static_cast<int64_t>(tid), item++,
                   rng->UniformInt(0, 6)};
      if (rng->Bernoulli(0.3)) {
        r.AppendUnchecked(std::move(t), Ext::Certain());
      } else {
        BVar b = out.db.pool().New();
        vars.push_back(b);
        r.AppendUnchecked(std::move(t), Ext::Maybe(b));
      }
    }
  }
  if (vars.size() >= 2 && rng->Bernoulli(0.6)) {
    int64_t z1 = rng->UniformInt(0, 1);
    out.db.constraints().AddCardinality(
        vars, z1, rng->UniformInt(z1, static_cast<int64_t>(vars.size())));
  }
  out.num_vars = out.db.pool().size();
  LICM_CHECK_OK(out.db.AddRelation("r", std::move(r)));
  return out;
}

TEST_P(ExtensionOracle, SumPredicateMatchesEnumeration) {
  Rng rng(0x5dc000 + GetParam());
  PricedDb pd = MakePricedDb(&rng);
  const CmpOp ops[] = {CmpOp::kLe, CmpOp::kGe, CmpOp::kLt, CmpOp::kGt,
                       CmpOp::kEq};
  auto q = rel::CountStar(rel::SumPredicate(
      rel::Scan("r"), "tid", "price", ops[rng.Uniform(5)],
      rng.UniformInt(0, 10)));

  auto assignments =
      EnumerateValidAssignments(pd.db.constraints(), pd.num_vars);
  ASSERT_TRUE(assignments.ok());
  if (assignments->empty()) return;
  double lo = 1e300, hi = -1e300;
  for (const auto& a : *assignments) {
    auto v = rel::EvaluateAggregate(*q, pd.db.Instantiate(a));
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    lo = std::min(lo, *v);
    hi = std::max(hi, *v);
  }
  auto ans = AnswerAggregate(*q, pd.db);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_DOUBLE_EQ(ans->bounds.min.value, lo) << q->ToString();
  EXPECT_DOUBLE_EQ(ans->bounds.max.value, hi) << q->ToString();
}

TEST_P(ExtensionOracle, MinMaxMatchesEnumeration) {
  Rng rng(0x31a000 + GetParam());
  PricedDb pd = MakePricedDb(&rng);
  const bool is_max = rng.Bernoulli(0.5);
  auto q = is_max ? rel::Max(rel::Scan("r"), "price")
                  : rel::Min(rel::Scan("r"), "price");

  auto assignments =
      EnumerateValidAssignments(pd.db.constraints(), pd.num_vars);
  ASSERT_TRUE(assignments.ok());
  if (assignments->empty()) return;
  double lo = 1e300, hi = -1e300;
  bool any_nonempty = false, any_empty = false;
  for (const auto& a : *assignments) {
    rel::Database world = pd.db.Instantiate(a);
    auto v = rel::EvaluateAggregate(*q, world);
    if (!v.ok()) {  // empty world relation
      any_empty = true;
      continue;
    }
    any_nonempty = true;
    lo = std::min(lo, *v);
    hi = std::max(hi, *v);
  }
  auto ans = AnswerAggregate(*q, pd.db);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_EQ(ans->minmax.may_be_empty, any_empty);
  EXPECT_EQ(ans->minmax.always_empty, !any_nonempty);
  if (any_nonempty) {
    EXPECT_DOUBLE_EQ(ans->minmax.lo, lo) << q->ToString();
    EXPECT_DOUBLE_EQ(ans->minmax.hi, hi) << q->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtensionOracle, ::testing::Range(0, 80));

}  // namespace
}  // namespace licm
