// Golden-oracle property tests.
//
// For randomly generated small LICM databases and randomly chosen query
// trees, enumerate *all* valid assignments (possible worlds), evaluate the
// query in each world with the deterministic engine, and require the
// LICM + solver bounds to equal the enumerated extrema exactly. This
// exercises, end to end: the operator encodings (Algorithms 1-4), lineage
// determinism, duplicate merging, pruning, BIP formulation, and the solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "licm/evaluator.h"
#include "licm/worlds.h"
#include "relational/engine.h"

namespace licm {
namespace {

using rel::CmpOp;
using rel::QueryNodePtr;
using rel::Value;
using rel::ValueType;

constexpr const char* kItems[] = {"ale", "brie", "cola", "dill", "eggs"};

struct RandomDb {
  LicmDatabase db;
  uint32_t num_base_vars = 0;
};

// A random TRANSITEM-style LICM relation: a few transactions, each item a
// certain or maybe tuple; maybe-variables are sometimes shared between
// tuples; random cardinality / correlation constraints over variable
// subsets.
RandomDb MakeRandomDb(Rng* rng) {
  RandomDb out;
  LicmRelation r(rel::Schema(
      {{"tid", ValueType::kInt}, {"item", ValueType::kString}}));
  std::vector<BVar> vars;
  const int num_tids = 2 + static_cast<int>(rng->Uniform(3));
  for (int tid = 1; tid <= num_tids; ++tid) {
    const int num_items = 1 + static_cast<int>(rng->Uniform(4));
    for (int k = 0; k < num_items; ++k) {
      rel::Tuple t{static_cast<int64_t>(tid),
                   std::string(kItems[rng->Uniform(5)])};
      // Avoid duplicate (tid, item) pairs: merge semantics are tested
      // separately; here we keep the base relation a set.
      bool dup = false;
      for (size_t i = 0; i < r.size(); ++i) dup |= r.RowEquals(i, t);
      if (dup) continue;
      if (rng->Bernoulli(0.25)) {
        r.AppendUnchecked(std::move(t), Ext::Certain());
      } else if (!vars.empty() && rng->Bernoulli(0.2)) {
        // Shared variable: correlated tuples.
        r.AppendUnchecked(std::move(t),
                          Ext::Maybe(vars[rng->Uniform(vars.size())]));
      } else {
        BVar b = out.db.pool().New();
        vars.push_back(b);
        r.AppendUnchecked(std::move(t), Ext::Maybe(b));
      }
    }
  }
  // Random constraints over the base variables.
  const int num_constraints = static_cast<int>(rng->Uniform(3));
  for (int c = 0; c < num_constraints && vars.size() >= 2; ++c) {
    std::vector<BVar> subset;
    for (BVar v : vars) {
      if (rng->Bernoulli(0.5)) subset.push_back(v);
    }
    if (subset.size() < 2) continue;
    switch (rng->Uniform(3)) {
      case 0: {
        int64_t z1 = rng->UniformInt(0, 1);
        int64_t z2 =
            rng->UniformInt(z1, static_cast<int64_t>(subset.size()));
        out.db.constraints().AddCardinality(subset, z1, z2);
        break;
      }
      case 1:
        out.db.constraints().AddImplication(subset[0], subset[1]);
        break;
      case 2:
        out.db.constraints().AddMutualExclusion(subset[0], subset[1]);
        break;
    }
  }
  out.num_base_vars = out.db.pool().size();
  LICM_CHECK_OK(out.db.AddRelation("trans_item", std::move(r)));
  return out;
}

// A random aggregate query over trans_item(tid, item).
QueryNodePtr MakeRandomQuery(Rng* rng) {
  using namespace rel;
  QueryNodePtr base = Scan("trans_item");
  switch (rng->Uniform(6)) {
    case 0:
      // COUNT of selected items.
      return CountStar(Select(
          base, {{"item", CmpOp::kGe, Value(std::string(kItems[rng->Uniform(5)]))}}));
    case 1:
      // COUNT of distinct transactions owning a selected item.
      return CountStar(Project(
          Select(base, {{"item", CmpOp::kLe,
                         Value(std::string(kItems[rng->Uniform(5)]))}}),
          {"tid"}));
    case 2: {
      // COUNT of transactions with (>=|<=|=) d selected items (Query-1
      // shape, plus the <= / = encodings of Algorithm 4).
      const CmpOp ops[] = {CmpOp::kGe, CmpOp::kLe, CmpOp::kEq};
      return CountStar(CountPredicate(
          Select(base, {{"item", CmpOp::kNe,
                         Value(std::string(kItems[rng->Uniform(5)]))}}),
          "tid", ops[rng->Uniform(3)], rng->UniformInt(1, 3)));
    }
    case 3:
      // Intersection of two selections (Query-2 shape).
      return CountStar(Intersect(
          CountPredicate(Select(base, {{"item", CmpOp::kGe,
                                        Value(std::string("b"))}}),
                         "tid", CmpOp::kGe, rng->UniformInt(1, 2)),
          CountPredicate(Select(base, {{"item", CmpOp::kLe,
                                        Value(std::string("d"))}}),
                         "tid", CmpOp::kGe, 1)));
    case 4:
      // Join shape (Query-3 flavour): transactions sharing an item with a
      // popular item set.
      return CountStar(Project(
          Join(base,
               CountPredicate(base, "item", CmpOp::kGe,
                              rng->UniformInt(1, 2)),
               {{"item", "item"}}),
          {"tid"}));
    default:
      // SUM over tid of a selection (constant numeric attribute).
      return Sum(Select(base, {{"item", CmpOp::kGe,
                                Value(std::string(kItems[rng->Uniform(5)]))}}),
                 "tid");
  }
}

class OracleTest : public ::testing::TestWithParam<int> {};

TEST_P(OracleTest, BoundsMatchExhaustiveEnumeration) {
  // LICM_FUZZ_SEED shifts the whole sweep, and every failure names its
  // seed so one case replays in isolation.
  const uint64_t seed = FuzzSeedFromEnv(0xabc000) + GetParam();
  SCOPED_TRACE("replay: LICM_FUZZ_SEED=" + std::to_string(seed - GetParam()) +
               " (case seed " + std::to_string(seed) + ")");
  Rng rng(seed);
  RandomDb rd = MakeRandomDb(&rng);
  QueryNodePtr query = MakeRandomQuery(&rng);

  // Oracle: evaluate in every possible world.
  auto assignments =
      EnumerateValidAssignments(rd.db.constraints(), rd.num_base_vars);
  ASSERT_TRUE(assignments.ok());
  double oracle_min = 1e300, oracle_max = -1e300;
  for (const auto& a : *assignments) {
    rel::Database world = rd.db.Instantiate(a);
    auto v = rel::EvaluateAggregate(*query, world);
    ASSERT_TRUE(v.ok()) << v.status().ToString() << "\n" << query->ToString();
    oracle_min = std::min(oracle_min, *v);
    oracle_max = std::max(oracle_max, *v);
  }

  auto ans = AnswerAggregate(*query, rd.db);
  if (assignments->empty()) {
    ASSERT_FALSE(ans.ok());
    EXPECT_EQ(ans.status().code(), StatusCode::kInfeasible);
    return;
  }
  ASSERT_TRUE(ans.ok()) << ans.status().ToString() << "\n"
                        << query->ToString();
  EXPECT_TRUE(ans->bounds.min.exact);
  EXPECT_TRUE(ans->bounds.max.exact);
  EXPECT_DOUBLE_EQ(ans->bounds.min.value, oracle_min) << query->ToString();
  EXPECT_DOUBLE_EQ(ans->bounds.max.value, oracle_max) << query->ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleTest, ::testing::Range(0, 150));

// The same property with pruning disabled, on a smaller sweep: catches
// pruning-specific soundness bugs by differential comparison.
class OracleNoPruneTest : public ::testing::TestWithParam<int> {};

TEST_P(OracleNoPruneTest, PrunedAndUnprunedAgree) {
  const uint64_t seed = FuzzSeedFromEnv(0xdef000) + GetParam();
  SCOPED_TRACE("replay: LICM_FUZZ_SEED=" + std::to_string(seed - GetParam()) +
               " (case seed " + std::to_string(seed) + ")");
  Rng rng(seed);
  RandomDb rd = MakeRandomDb(&rng);
  QueryNodePtr query = MakeRandomQuery(&rng);

  auto assignments =
      EnumerateValidAssignments(rd.db.constraints(), rd.num_base_vars);
  ASSERT_TRUE(assignments.ok());
  if (assignments->empty()) return;

  AnswerOptions no_prune;
  no_prune.bounds.prune = false;
  auto a1 = AnswerAggregate(*query, rd.db);
  auto a2 = AnswerAggregate(*query, rd.db, no_prune);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  EXPECT_DOUBLE_EQ(a1->bounds.min.value, a2->bounds.min.value);
  EXPECT_DOUBLE_EQ(a1->bounds.max.value, a2->bounds.max.value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleNoPruneTest, ::testing::Range(0, 50));

}  // namespace
}  // namespace licm
