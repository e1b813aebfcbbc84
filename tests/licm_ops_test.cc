// Tests for the LICM model and operators, built around the paper's own
// running examples (Figures 2-4, Examples 6-8).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "common/metrics.h"
#include "common/telemetry.h"
#include "licm/aggregate.h"
#include "licm/evaluator.h"
#include "licm/lineage.h"
#include "licm/worlds.h"
#include "licm_eval_helper.h"

namespace licm {
namespace {

using rel::CmpOp;
using rel::Value;
using rel::ValueType;

rel::Schema TransItemSchema() {
  return rel::Schema(
      {{"tid", ValueType::kInt}, {"item", ValueType::kString}});
}

Value V(const char* s) { return Value(std::string(s)); }

// Figure 2(c): transaction T1 = {Alcohol, Shampoo}; Alcohol generalizes to
// {Beer, Wine, Liquor} with b1 + b2 + b3 >= 1; Shampoo is certain.
LicmDatabase Figure2c() {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  std::vector<BVar> alcohol;
  for (const char* item : {"beer", "wine", "liquor"}) {
    BVar b = db.pool().New();
    alcohol.push_back(b);
    r.AppendUnchecked({int64_t{1}, std::string(item)}, Ext::Maybe(b));
  }
  r.AppendUnchecked({int64_t{1}, std::string("shampoo")}, Ext::Certain());
  db.constraints().AddCardinality(alcohol, 1, 3);
  LICM_CHECK_OK(db.AddRelation("trans_item", std::move(r)));
  return db;
}

// Figure 4(b): the relation used by Examples 7 and 8.
LicmDatabase Figure4b(std::vector<BVar>* vars_out = nullptr) {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  std::vector<BVar> vars;
  auto maybe = [&](int64_t tid, const char* item) {
    BVar b = db.pool().New();
    vars.push_back(b);
    r.AppendUnchecked({tid, std::string(item)}, Ext::Maybe(b));
  };
  maybe(1, "pregnancy_test");  // b1
  maybe(1, "diapers");         // b2
  maybe(1, "shampoo");         // b3
  r.AppendUnchecked({int64_t{2}, std::string("wine")}, Ext::Certain());
  maybe(2, "shampoo");         // b6
  maybe(3, "pregnancy_test");  // b7
  LICM_CHECK_OK(db.AddRelation("trans_item", std::move(r)));
  if (vars_out) *vars_out = vars;
  return db;
}

// ---- Constraint primitives ----

TEST(Constraint, CardinalityClampsVacuousSides) {
  ConstraintSet cs;
  cs.AddCardinality({0, 1, 2}, 0, 3);  // vacuous both sides
  EXPECT_EQ(cs.size(), 0u);
  cs.AddCardinality({0, 1, 2}, 1, 3);  // only lower side
  EXPECT_EQ(cs.size(), 1u);
  cs.AddCardinality({0, 1, 2}, 1, 2);
  EXPECT_EQ(cs.size(), 3u);
}

TEST(Constraint, CorrelationSemantics) {
  // Enumerate assignments and check Example 5's correlations.
  ConstraintSet mutex;
  mutex.AddMutualExclusion(0, 1);
  auto worlds = EnumerateValidAssignments(mutex, 2);
  ASSERT_TRUE(worlds.ok());
  EXPECT_EQ(worlds->size(), 2u);  // 01, 10

  ConstraintSet coexist;
  coexist.AddCoexistence(0, 1);
  worlds = EnumerateValidAssignments(coexist, 2);
  ASSERT_TRUE(worlds.ok());
  EXPECT_EQ(worlds->size(), 2u);  // 00, 11

  ConstraintSet implies;
  implies.AddImplication(0, 1);
  worlds = EnumerateValidAssignments(implies, 2);
  ASSERT_TRUE(worlds.ok());
  EXPECT_EQ(worlds->size(), 3u);  // all but 10
}

TEST(Constraint, AndLinkTruthTable) {
  ConstraintSet cs;
  cs.AddAnd(2, 0, 1);
  auto worlds = EnumerateValidAssignments(cs, 3);
  ASSERT_TRUE(worlds.ok());
  // Deterministic lineage: for each of 4 input combinations, exactly one
  // output value survives -> 4 valid assignments.
  ASSERT_EQ(worlds->size(), 4u);
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[2], a[0] & a[1]);
  }
}

TEST(Constraint, OrLinkTruthTable) {
  ConstraintSet cs;
  cs.AddOr(3, {0, 1, 2});
  auto worlds = EnumerateValidAssignments(cs, 4);
  ASSERT_TRUE(worlds.ok());
  ASSERT_EQ(worlds->size(), 8u);
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[3], a[0] | a[1] | a[2]);
  }
}

TEST(Constraint, ToStringReadable) {
  LinearConstraint c{{{0, 1}, {1, 1}, {2, -2}}, ConstraintOp::kGe, 1};
  EXPECT_EQ(c.ToString(), "b0 + b1 - 2 b2 >= 1");
}

// ---- Figure 2(c): generalization block ----

TEST(Figure2, ItemCountBounds) {
  LicmDatabase db = Figure2c();
  auto ans = AnswerAggregate(*rel::CountStar(rel::Scan("trans_item")), db);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans->bounds.min.exact);
  EXPECT_TRUE(ans->bounds.max.exact);
  EXPECT_DOUBLE_EQ(ans->bounds.min.value, 2.0);  // shampoo + 1 alcohol
  EXPECT_DOUBLE_EQ(ans->bounds.max.value, 4.0);  // all three + shampoo
}

TEST(Figure2, WorldEnumerationMatchesSemantics) {
  LicmDatabase db = Figure2c();
  const LicmRelation& r = *db.GetRelation("trans_item").value();
  auto worlds = EnumerateWorlds(r, db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  EXPECT_EQ(worlds->size(), 7u);  // non-empty subsets of {beer,wine,liquor}
  for (const auto& w : *worlds) {
    EXPECT_GE(w.size(), 2u);
    EXPECT_LE(w.size(), 4u);
  }
}

// ---- Example 6 / Figure 3: intersection ----

TEST(Example6, IntersectionLineage) {
  LicmDatabase db;
  LicmRelation r1(TransItemSchema());
  BVar b1 = db.pool().New(), b2 = db.pool().New();
  r1.AppendUnchecked({int64_t{1}, std::string("wine")}, Ext::Maybe(b1));
  r1.AppendUnchecked({int64_t{1}, std::string("liquor")}, Ext::Maybe(b2));
  r1.AppendUnchecked({int64_t{2}, std::string("beer")}, Ext::Certain());
  db.constraints().AddCardinality({b1, b2}, 1, 2);

  LicmRelation r2(TransItemSchema());
  BVar b3 = db.pool().New(), b4 = db.pool().New();
  r2.AppendUnchecked({int64_t{1}, std::string("wine")}, Ext::Maybe(b3));
  r2.AppendUnchecked({int64_t{2}, std::string("beer")}, Ext::Maybe(b4));
  LICM_CHECK_OK(db.AddRelation("r1", std::move(r1)));
  LICM_CHECK_OK(db.AddRelation("r2", std::move(r2)));

  auto out = EvaluateToRelation(
      *rel::Intersect(rel::Scan("r1"), rel::Scan("r2")), &db);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  // (T1, wine) gets a fresh AND variable; (T2, beer) reuses b4 because the
  // left side is certain.
  EXPECT_FALSE(out->ext(0).certain());
  EXPECT_EQ(out->ext(1), Ext::Maybe(b4));

  // Check the AND semantics by enumeration: b5 = b1 AND b3 in all worlds.
  const BVar b5 = out->ext(0).var();
  auto worlds = EnumerateValidAssignments(db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  ASSERT_FALSE(worlds->empty());
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[b5], a[b1] & a[b3]);
  }
}

// ---- Example 7: projection ----

TEST(Example7, ProjectionCases) {
  std::vector<BVar> vars;
  LicmDatabase db = Figure4b(&vars);
  auto out =
      EvaluateToRelation(*rel::Project(rel::Scan("trans_item"), {"tid"}), &db);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);

  // T1: new OR variable over {b1, b2, b3}.
  EXPECT_FALSE(out->ext(0).certain());
  EXPECT_GE(out->ext(0).var(), vars.back());
  // T2: certain because of (T2, wine, 1).
  EXPECT_TRUE(out->ext(1).certain());
  // T3: unique source tuple, reuses b7 (the Example 7 optimization).
  EXPECT_EQ(out->ext(2), Ext::Maybe(vars[4]));

  // OR semantics by enumeration.
  const BVar b8 = out->ext(0).var();
  auto worlds = EnumerateValidAssignments(db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[b8], a[vars[0]] | a[vars[1]] | a[vars[2]]);
  }
}

// ---- Example 8: COUNT predicate ----

TEST(Example8, CountPredicateEncoding) {
  std::vector<BVar> vars;
  LicmDatabase db = Figure4b(&vars);
  // Query: transactions with >= 2 health-care items, where health care =
  // {diapers, pregnancy_test, shampoo}.
  auto q = rel::CountStar(rel::CountPredicate(
      rel::Select(rel::Scan("trans_item"),
                  {{"item", CmpOp::kNe, V("wine")}}),
      "tid", CmpOp::kGe, 2));
  auto ans = AnswerAggregate(*q, db);
  ASSERT_TRUE(ans.ok());
  // Only T1 can have >= 2 health-care items (it has three maybe items);
  // T2 and T3 have at most one.
  EXPECT_DOUBLE_EQ(ans->bounds.min.value, 0.0);
  EXPECT_DOUBLE_EQ(ans->bounds.max.value, 1.0);
  EXPECT_TRUE(ans->bounds.min.exact);
  EXPECT_TRUE(ans->bounds.max.exact);
}

TEST(CountPredicate, CertainAndExcludedCases) {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  // T1: two certain items -> COUNT >= 2 certainly satisfied.
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Certain());
  r.AppendUnchecked({int64_t{1}, std::string("b")}, Ext::Certain());
  // T2: one certain item -> COUNT >= 2 impossible.
  r.AppendUnchecked({int64_t{2}, std::string("a")}, Ext::Certain());
  // T3: one certain + one maybe -> variable case.
  BVar b = db.pool().New();
  r.AppendUnchecked({int64_t{3}, std::string("a")}, Ext::Certain());
  r.AppendUnchecked({int64_t{3}, std::string("b")}, Ext::Maybe(b));

  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto out = EvaluateToRelation(
      *rel::CountPredicate(rel::Scan("r"), "tid", CmpOp::kGe, 2), &db);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);  // T1 certain, T3 variable; T2 excluded
  EXPECT_TRUE(out->ext(0).certain());
  EXPECT_FALSE(out->ext(1).certain());

  // The derived variable must track b exactly (count = 1 + b >= 2 iff b).
  const BVar derived = out->ext(1).var();
  auto worlds = EnumerateValidAssignments(db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[derived], a[b]);
  }
}

TEST(CountPredicate, CountLeEncoding) {
  // Group with 2 maybes and 1 certain; COUNT <= 1 holds iff both maybes
  // are absent.
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  BVar b1 = db.pool().New(), b2 = db.pool().New();
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Certain());
  r.AppendUnchecked({int64_t{1}, std::string("b")}, Ext::Maybe(b1));
  r.AppendUnchecked({int64_t{1}, std::string("c")}, Ext::Maybe(b2));
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto out = EvaluateToRelation(
      *rel::CountPredicate(rel::Scan("r"), "tid", CmpOp::kLe, 1), &db);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  ASSERT_FALSE(out->ext(0).certain());
  const BVar derived = out->ext(0).var();
  auto worlds = EnumerateValidAssignments(db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[derived], static_cast<uint8_t>(a[b1] + a[b2] == 0));
  }
}

TEST(CountPredicate, CountEqViaAnd) {
  // COUNT = 1 over two maybe tuples: holds iff exactly one is present.
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  BVar b1 = db.pool().New(), b2 = db.pool().New();
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Maybe(b1));
  r.AppendUnchecked({int64_t{1}, std::string("b")}, Ext::Maybe(b2));
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto out = EvaluateToRelation(
      *rel::CountPredicate(rel::Scan("r"), "tid", CmpOp::kEq, 1), &db);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  const BVar derived = out->ext(0).var();
  auto worlds = EnumerateValidAssignments(db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[derived], static_cast<uint8_t>(a[b1] + a[b2] == 1));
  }
}

TEST(CountPredicate, NeUnimplemented) {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Certain());
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto out = EvaluateToRelation(
      *rel::CountPredicate(rel::Scan("r"), "tid", CmpOp::kNe, 1), &db);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnimplemented);
}

// ---- MergeDuplicates ----

TEST(MergeDuplicates, NoDuplicatesIsIdentity) {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  BVar b = db.pool().New();
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Maybe(b));
  r.AppendUnchecked({int64_t{2}, std::string("a")}, Ext::Certain());
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto out = EvaluateToRelation(*rel::Scan("r"), &db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
  EXPECT_EQ(db.pool().size(), 1u);  // no new variables
}

TEST(MergeDuplicates, OrMergesDuplicateTuples) {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  BVar b1 = db.pool().New(), b2 = db.pool().New();
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Maybe(b1));
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Maybe(b2));
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto out = EvaluateToRelation(*rel::Scan("r"), &db);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  const BVar merged = out->ext(0).var();
  auto worlds = EnumerateValidAssignments(db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[merged], a[b1] | a[b2]);
  }
}

// ---- Completeness (Theorem 1) ----

TEST(Completeness, RoundTripsWorldSets) {
  // Build three explicit worlds over a tiny schema and check the encoder
  // reproduces exactly that world set.
  rel::Schema s({{"x", ValueType::kInt}});
  auto world = [&](std::vector<int64_t> xs) {
    rel::Relation w(s);
    for (int64_t x : xs) w.AppendUnchecked({x});
    return w;
  };
  std::vector<rel::Relation> worlds = {world({1, 2}), world({2, 3}),
                                       world({1, 2, 3})};
  auto db = EncodeWorlds(worlds, "r");
  ASSERT_TRUE(db.ok());
  const LicmRelation& r = *db->GetRelation("r").value();
  auto round = EnumerateWorlds(r, db->constraints(), db->pool().size());
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round->size(), worlds.size());
  for (const auto& w : worlds) {
    bool found = false;
    for (const auto& got : *round) found |= got.SetEquals(w);
    EXPECT_TRUE(found);
  }
}

TEST(Completeness, SingleWorldFixesEverything) {
  rel::Schema s({{"x", ValueType::kInt}});
  rel::Relation w(s);
  w.AppendUnchecked({int64_t{7}});
  auto db = EncodeWorlds({w}, "r");
  ASSERT_TRUE(db.ok());
  auto worlds = EnumerateWorlds(*db->GetRelation("r").value(),
                                db->constraints(), db->pool().size());
  ASSERT_TRUE(worlds.ok());
  ASSERT_EQ(worlds->size(), 1u);
  EXPECT_TRUE((*worlds)[0].SetEquals(w));
}

TEST(Completeness, RejectsOversizedUniverse) {
  rel::Schema s({{"x", ValueType::kInt}});
  rel::Relation w(s);
  for (int64_t i = 0; i < 21; ++i) w.AppendUnchecked({i});
  EXPECT_FALSE(EncodeWorlds({w}, "r").ok());
}

// ---- Pruning ----

TEST(Prune, DropsUnreachableGroups) {
  ConstraintSet cs;
  cs.AddCardinality({0, 1, 2}, 1, 2);  // group A
  cs.AddCardinality({3, 4, 5}, 1, 2);  // group B (unreachable)
  cs.AddAnd(6, 0, 1);                  // derived from group A
  PruneResult pr = Prune(cs, {6}, 7);
  EXPECT_EQ(pr.stats.vars_after, 4u);  // 6, 0, 1, 2 (via cardinality rows)
  EXPECT_EQ(pr.stats.constraints_after, 5u);
  EXPECT_EQ(pr.live, (std::vector<BVar>{0, 1, 2, 6}));
  EXPECT_EQ(pr.rows, (std::vector<uint32_t>{0, 1, 4, 5, 6}));
}

TEST(Prune, ReachesAcrossInterleavedConstraints) {
  // Permutation-style coupling: row constraints first, column constraints
  // after; the paper's single reverse pass would under-approximate here.
  ConstraintSet cs;
  // rows: {0,1}, {2,3}; cols: {0,2}, {1,3}
  cs.AddCardinality({0, 1}, 1, 1);
  cs.AddCardinality({2, 3}, 1, 1);
  cs.AddCardinality({0, 2}, 1, 1);
  cs.AddCardinality({1, 3}, 1, 1);
  PruneResult pr = Prune(cs, {0}, 4);
  EXPECT_EQ(pr.stats.vars_after, 4u);
  EXPECT_EQ(pr.stats.constraints_after, cs.size());
}

TEST(Prune, KeepsRowlessSeedAndOriginalRowOrder) {
  // Two components whose rows interleave — A = {0,1,2} owns rows 0, 2, 4
  // and B = {3,4,6} owns rows 1, 3 — plus a constant row and variable 5,
  // which appears in no row.
  ConstraintSet cs;
  cs.AddMutualExclusion(0, 1);  // row 0: A
  cs.AddMutualExclusion(3, 4);  // row 1: B
  cs.AddMutualExclusion(1, 2);  // row 2: A
  cs.AddMutualExclusion(4, 6);  // row 3: B
  cs.AddMutualExclusion(2, 0);  // row 4: A
  cs.Add(LinearConstraint{{}, ConstraintOp::kLe, 0});  // row 5: constant

  PruneResult b = Prune(cs, {6, 5}, 7);
  EXPECT_EQ(b.rows, (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(b.live, (std::vector<BVar>{3, 4, 5, 6}));
  EXPECT_EQ(b.stats.vars_after, 4u);
  EXPECT_EQ(b.stats.constraints_after, 2u);

  PruneResult a = Prune(cs, {5, 2}, 7);
  EXPECT_EQ(a.rows, (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(a.live, (std::vector<BVar>{0, 1, 2, 5}));

  PruneResult lone = Prune(cs, {5}, 7);
  EXPECT_TRUE(lone.rows.empty());
  EXPECT_EQ(lone.live, (std::vector<BVar>{5}));
}

TEST(Prune, BoundsIdenticalWithAndWithoutPruning) {
  LicmDatabase db = Figure2c();
  // Add an unrelated constrained block that pruning should drop.
  std::vector<BVar> junk;
  for (int i = 0; i < 5; ++i) junk.push_back(db.pool().New());
  db.constraints().AddCardinality(junk, 2, 3);

  auto q = rel::CountStar(rel::Scan("trans_item"));
  AnswerOptions with, without;
  with.bounds.prune = true;
  without.bounds.prune = false;
  auto a1 = AnswerAggregate(*q, db, with);
  auto a2 = AnswerAggregate(*q, db, without);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  EXPECT_DOUBLE_EQ(a1->bounds.min.value, a2->bounds.min.value);
  EXPECT_DOUBLE_EQ(a1->bounds.max.value, a2->bounds.max.value);
  EXPECT_LT(a1->bounds.prune_stats.vars_after,
            a2->bounds.prune_stats.vars_after);
}

// ---- Aggregate infrastructure ----

TEST(Aggregate, InfeasibleConstraintsReported) {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  BVar b = db.pool().New();
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Maybe(b));
  db.constraints().AddFix(b, 1);
  db.constraints().AddFix(b, 0);
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto ans = AnswerAggregate(*rel::CountStar(rel::Scan("r")), db);
  ASSERT_FALSE(ans.ok());
  EXPECT_EQ(ans.status().code(), StatusCode::kInfeasible);
}

TEST(Aggregate, InfeasibleUnqueriedComponentReported) {
  // The queried relation's own component is satisfiable; the only
  // contradiction sits in a component sharing no variable with it, which
  // pruning drops. COUNT and SUM must still see it through the pruned-
  // remainder check, and MAX through the prober's base check.
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  const BVar b0 = db.pool().New();
  const BVar b1 = db.pool().New();
  r.AppendUnchecked({int64_t{3}, std::string("a")}, Ext::Maybe(b0));
  r.AppendUnchecked({int64_t{5}, std::string("b")}, Ext::Maybe(b1));
  db.constraints().AddCardinality({b0, b1}, 1, 2);
  // c0 + c1 >= 2 and c0 + c1 + c2 <= 1: no world. The greedy witness sets
  // c0 = c1 = 1 and fails the second row, so the exact solve decides.
  const BVar c0 = db.pool().New();
  const BVar c1 = db.pool().New();
  const BVar c2 = db.pool().New();
  db.constraints().Add(
      LinearConstraint{{{c0, 1}, {c1, 1}}, ConstraintOp::kGe, 2});
  db.constraints().Add(LinearConstraint{{{c0, 1}, {c1, 1}, {c2, 1}},
                                        ConstraintOp::kLe, 1});
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));

  for (const rel::QueryNodePtr& q :
       {rel::CountStar(rel::Scan("r")), rel::Sum(rel::Scan("r"), "tid"),
        rel::Max(rel::Scan("r"), "tid")}) {
    auto ans = AnswerAggregate(*q, db);
    ASSERT_FALSE(ans.ok()) << q->ToString();
    EXPECT_EQ(ans.status().code(), StatusCode::kInfeasible) << q->ToString();
  }

  // Without the contradiction every query answers.
  db.constraints().Replace(db.constraints().size() - 1,
                           LinearConstraint{{{c0, 1}, {c1, 1}, {c2, 1}},
                                            ConstraintOp::kLe, 2});
  EXPECT_TRUE(AnswerAggregate(*rel::CountStar(rel::Scan("r")), db).ok());
  EXPECT_TRUE(AnswerAggregate(*rel::Max(rel::Scan("r"), "tid"), db).ok());
}

TEST(Aggregate, EmptyRelationGivesZeroBounds) {
  LicmDatabase db;
  LICM_CHECK_OK(db.AddRelation("r", LicmRelation(TransItemSchema())));
  auto ans = AnswerAggregate(*rel::CountStar(rel::Scan("r")), db);
  ASSERT_TRUE(ans.ok());
  EXPECT_DOUBLE_EQ(ans->bounds.min.value, 0.0);
  EXPECT_DOUBLE_EQ(ans->bounds.max.value, 0.0);
}

TEST(Aggregate, SumBoundsWeightedByPrice) {
  // Two maybe items with prices 5 and 3, mutually exclusive: SUM(price) is
  // 3 or 5 in every world.
  LicmDatabase db;
  LicmRelation r(rel::Schema(
      {{"item", ValueType::kString}, {"price", ValueType::kInt}}));
  BVar b1 = db.pool().New(), b2 = db.pool().New();
  r.AppendUnchecked({std::string("a"), int64_t{5}}, Ext::Maybe(b1));
  r.AppendUnchecked({std::string("b"), int64_t{3}}, Ext::Maybe(b2));
  db.constraints().AddMutualExclusion(b1, b2);
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto ans = AnswerAggregate(*rel::Sum(rel::Scan("r"), "price"), db);
  ASSERT_TRUE(ans.ok());
  EXPECT_DOUBLE_EQ(ans->bounds.min.value, 3.0);
  EXPECT_DOUBLE_EQ(ans->bounds.max.value, 5.0);
}

TEST(Aggregate, ExtremeWorldIsValid) {
  LicmDatabase db = Figure2c();
  auto ans = AnswerAggregate(*rel::CountStar(rel::Scan("trans_item")), db);
  ASSERT_TRUE(ans.ok());
  ASSERT_TRUE(ans->bounds.max.has_world);
  // Expand the (partial) world map into a full assignment; all pool
  // variables are live here.
  std::vector<uint8_t> a(db.pool().size(), 0);
  for (const auto& [v, val] : ans->bounds.max.world) a[v] = val;
  EXPECT_TRUE(db.constraints().Satisfied(a));
  const LicmRelation& r = *db.GetRelation("trans_item").value();
  EXPECT_EQ(r.Instantiate(a).size(), 4u);
}

// Every row index of `cs`, the selection a full-set feasibility check uses.
std::vector<uint32_t> AllRows(const ConstraintSet& cs) {
  return KeepAll(cs, /*num_vars=*/0).rows;
}

// Stats a solve would overwrite; a check that leaves them alone ran none.
solver::MipStats SentinelStats() {
  solver::MipStats s;
  s.nodes = -1;
  s.decompose_calls = -1;
  return s;
}

bool IsSentinel(const solver::MipStats& s) {
  return s.nodes == -1 && s.decompose_calls == -1;
}

// A cardinality block plus lineage rows from every primitive of
// lineage.h. The greedy witness raises block variables for the >= rows
// (b0 for the block, b1 and b2 for EncodeLe's first row), which breaks
// the block's upper side; the creation-order witness raises each fresh
// variable on top of the settled older ones and finds a world.
TEST(CheckFeasible, CreationOrderWitnessSettlesLineageRowsWithoutSolve) {
  VariablePool pool;
  ConstraintSet cs;
  const OpContext ctx{&pool, &cs};
  const std::vector<BVar> block = {pool.New(), pool.New(), pool.New()};
  cs.AddCardinality(block, 1, 2);
  CountGroup group;
  for (BVar b : block) AccumulateCount(&group, Ext::Maybe(b), 1);
  const CountCase ge = EncodeGe(group, 1, ctx);
  const CountCase le = EncodeLe(group, 2, ctx);
  ASSERT_EQ(ge.kind, CountCase::kVariable);
  ASSERT_EQ(le.kind, CountCase::kVariable);
  const Ext both = AndExt(Ext::Maybe(ge.var), Ext::Maybe(le.var), ctx);
  GroupExt any;
  any.vars = {both.var(), block[0]};
  const Ext exists = GroupOrExt(any, ctx);
  ASSERT_FALSE(exists.certain());
  ASSERT_EQ(exists.var(), pool.size() - 1);

  solver::MipStats stats = SentinelStats();
  EXPECT_EQ(CheckFeasible(cs, AllRows(cs), {}, {}, &stats),
            Feasibility::kFeasible);
  EXPECT_TRUE(IsSentinel(stats)) << "a witness should have settled it";

  // Extra rows join the same pass: forcing the OR output on is fine.
  LinearConstraint on;
  on.terms = {{exists.var(), 1}};
  on.op = ConstraintOp::kGe;
  on.rhs = 1;
  EXPECT_EQ(CheckFeasible(cs, AllRows(cs), {on}, {}, &stats),
            Feasibility::kFeasible);
  EXPECT_TRUE(IsSentinel(stats));
}

// Exactly one per row and per column of a 3x3 grid of fresh variables (a
// bipartite assignment): the greedy witness piles column 0, the
// creation-order witness overfills the last row. Only a solve finds a
// world.
void AddExactlyOneGrid(VariablePool* pool, ConstraintSet* cs) {
  BVar x[3][3];
  for (auto& row : x) {
    for (BVar& v : row) v = pool->New();
  }
  for (int i = 0; i < 3; ++i) {
    cs->AddCardinality({x[i][0], x[i][1], x[i][2]}, 1, 1);
  }
  for (int j = 0; j < 3; ++j) {
    cs->AddCardinality({x[0][j], x[1][j], x[2][j]}, 1, 1);
  }
}

TEST(CheckFeasible, SolveSettlesWhatNeitherWitnessDoes) {
  VariablePool pool;
  ConstraintSet cs;
  AddExactlyOneGrid(&pool, &cs);
  solver::MipStats stats = SentinelStats();
  EXPECT_EQ(CheckFeasible(cs, AllRows(cs), {}, {}, &stats),
            Feasibility::kFeasible);
  EXPECT_FALSE(IsSentinel(stats)) << "only a solve can settle this set";
  EXPECT_GT(stats.decompose_calls, 0);
}

TEST(CheckFeasible, ContradictoryRowsAreInfeasible) {
  VariablePool pool;
  ConstraintSet cs;
  const std::vector<BVar> vars = {pool.New(), pool.New()};
  cs.AddCardinality(vars, 1, 2);
  LinearConstraint none;
  none.terms = {{vars[0], 1}, {vars[1], 1}};
  none.op = ConstraintOp::kLe;
  none.rhs = 0;
  solver::MipStats stats = SentinelStats();
  EXPECT_EQ(CheckFeasible(cs, AllRows(cs), {none}, {}, &stats),
            Feasibility::kInfeasible);
  EXPECT_FALSE(IsSentinel(stats));

  // A constant row that cannot hold needs no solve at all.
  LinearConstraint never;
  never.op = ConstraintOp::kGe;
  never.rhs = 1;
  stats = SentinelStats();
  EXPECT_EQ(CheckFeasible(cs, AllRows(cs), {never}, {}, &stats),
            Feasibility::kInfeasible);
  EXPECT_TRUE(IsSentinel(stats));
}

// The `remainder` span of ComputeBounds: rows checked, and solved=1 only
// when the check had to solve (here the grid no witness settles).
TEST(CheckFeasible, RemainderSpanRecordsWhetherItSolved) {
  VariablePool pool;
  ConstraintSet cs;
  const BVar seed = pool.New();
  AddExactlyOneGrid(&pool, &cs);
  Objective obj;
  obj.coefs[seed] = 1.0;

  auto remainder_args = [&](double* rows, double* solved) {
    telemetry::StartTracing();
    auto bounds = ComputeBounds(obj, cs, pool.size());
    telemetry::StopTracing();
    ASSERT_TRUE(bounds.ok()) << bounds.status().ToString();
    int spans = 0;
    for (const telemetry::Event& e : telemetry::Snapshot()) {
      if (std::strcmp(e.name, "remainder") != 0) continue;
      ++spans;
      for (const telemetry::Arg& a : e.args) {
        if (a.key == nullptr) continue;
        if (std::strcmp(a.key, "rows") == 0) *rows = a.value;
        if (std::strcmp(a.key, "solved") == 0) *solved = a.value;
      }
    }
    EXPECT_EQ(spans, 1);
  };
  double rows = -1, solved = -1;
  remainder_args(&rows, &solved);
  EXPECT_EQ(rows, 12.0);
  EXPECT_EQ(solved, 1.0);

  // Loosen the grid's row uppers: the greedy witness now settles it.
  ConstraintSet loose;
  for (const LinearConstraint& c : cs.constraints()) {
    if (c.op != ConstraintOp::kLe) loose.Add(c);
  }
  cs = loose;
  remainder_args(&rows, &solved);
  EXPECT_EQ(rows, 6.0);
  EXPECT_EQ(solved, 0.0);
}

TEST(LicmDatabase, CopiesShareRelations) {
  const LicmDatabase db = Figure2c();
  const LicmDatabase copy = db;
  EXPECT_EQ(db.GetRelation("trans_item").value(),
            copy.GetRelation("trans_item").value());

  // The column storage itself is shared until a copy mutates it.
  auto tid_column = [](const LicmDatabase& d) {
    return d.GetRelation("trans_item").value()->columns().col(0).i64.data();
  };
  const int64_t* tids = tid_column(db);
  EXPECT_EQ(tid_column(copy), tids);
  LicmDatabase mutated = db;
  EXPECT_EQ(tid_column(mutated), tids);
  LicmRelation* mine = mutated.GetMutableRelation("trans_item").value();
  mine->AppendUnchecked({int64_t{2}, std::string("soap")}, Ext::Certain());
  EXPECT_NE(tid_column(mutated), tids);
  EXPECT_EQ(tid_column(db), tids);
  EXPECT_EQ(tid_column(copy), tids);
  EXPECT_EQ(db.GetRelation("trans_item").value()->size(), 4u);
}

TEST(LicmDatabase, MutableRelationOfACopyLeavesTheOriginal) {
  const LicmDatabase db = Figure2c();
  const LicmRelation* original = db.GetRelation("trans_item").value();
  const std::vector<rel::Tuple> before = original->tuples();

  LicmDatabase copy = db;
  LicmRelation* mine = copy.GetMutableRelation("trans_item").value();
  EXPECT_NE(mine, original);
  mine->RemoveAt(0);
  mine->AppendUnchecked({int64_t{9}, std::string("soap")}, Ext::Certain());

  EXPECT_EQ(db.GetRelation("trans_item").value(), original);
  EXPECT_EQ(original->tuples(), before);
  EXPECT_EQ(copy.GetRelation("trans_item").value(), mine);
  EXPECT_EQ(mine->size(), before.size());
  EXPECT_NE(mine->tuples(), before);
  // No longer shared: a second lookup returns the same private relation.
  EXPECT_EQ(copy.GetMutableRelation("trans_item").value(), mine);
}

TEST(LicmRelation, RowEqualsComparesInPlace) {
  LicmRelation r(rel::Schema({{"tid", ValueType::kInt},
                              {"item", ValueType::kString},
                              {"price", ValueType::kDouble}}));
  r.AppendUnchecked({int64_t{1}, std::string("beer"), 0.0}, Ext::Certain());
  EXPECT_TRUE(r.RowEquals(0, {int64_t{1}, std::string("beer"), 0.0}));
  EXPECT_TRUE(r.RowEquals(0, {int64_t{1}, std::string("beer"), -0.0}));
  EXPECT_FALSE(r.RowEquals(0, {int64_t{2}, std::string("beer"), 0.0}));
  EXPECT_FALSE(r.RowEquals(0, {int64_t{1}, std::string("wine"), 0.0}));
  // Type-strict, like Value equality: an int never equals a double.
  EXPECT_FALSE(r.RowEquals(0, {int64_t{1}, std::string("beer"), int64_t{0}}));
  EXPECT_FALSE(r.RowEquals(0, {int64_t{1}, std::string("beer")}));
  EXPECT_EQ(r.tuple(0), (rel::Tuple{int64_t{1}, std::string("beer"), 0.0}));
}

// ---- Scans borrow the base relation's columns ----

// n distinct (tid, price) tuples, every other one a maybe-tuple.
LicmDatabase NumericSet(int64_t n) {
  LicmDatabase db;
  LicmRelation r(rel::Schema(
      {{"tid", ValueType::kInt}, {"price", ValueType::kDouble}}));
  for (int64_t i = 0; i < n; ++i) {
    r.AppendUnchecked({i, 0.5 * static_cast<double>(i)},
                      i % 2 == 0 ? Ext::Certain()
                                 : Ext::Maybe(db.pool().New()));
  }
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  return db;
}

TEST(ColumnarScan, BorrowsBaseColumns) {
  auto scan_arena_bytes = [](int64_t n) {
    LicmDatabase db = NumericSet(n);
    const LicmRelation& r = *db.GetRelation("r").value();
    ColumnarLicmContext ctx(OpContext{&db.pool(), &db.constraints()});
    auto b = EvaluateLicmBatch(*rel::Scan("r"), &db, &ctx);
    EXPECT_TRUE(b.ok());
    if (!b.ok()) return size_t{0};
    EXPECT_EQ(b->view.cols[0].i64, r.columns().col(0).i64.data());
    EXPECT_EQ(b->view.cols[1].f64, r.columns().col(1).f64.data());
    EXPECT_EQ(b->exts, r.exts().data());
    EXPECT_TRUE(b->view.AllActive());
    EXPECT_EQ(b->view.active, static_cast<size_t>(n));
    EXPECT_EQ(ctx.rows_scanned, static_cast<size_t>(n));
    return ctx.arena.bytes_allocated();
  };
  EXPECT_EQ(scan_arena_bytes(100), scan_arena_bytes(10000));
}

TEST(ColumnarScan, DuplicateAppendedAfterScanIsMerged) {
  LicmDatabase db = Figure2c();
  const auto scan = rel::Scan("trans_item");
  {
    ColumnarLicmContext ctx(OpContext{&db.pool(), &db.constraints()});
    auto b = EvaluateLicmBatch(*scan, &db, &ctx);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b->exts, db.GetRelation("trans_item").value()->exts().data());
    EXPECT_EQ(b->view.active, 4u);
  }

  // A second copy of (1, beer) under its own variable: beer now exists
  // when either variable is 1.
  LicmDatabase dup = db;
  LicmRelation* r = dup.GetMutableRelation("trans_item").value();
  const BVar extra = dup.pool().New();
  r->AppendUnchecked({int64_t{1}, std::string("beer")}, Ext::Maybe(extra));
  EXPECT_FALSE(r->IsSet());
  {
    const size_t vars_before = dup.pool().size();
    ColumnarLicmContext ctx(OpContext{&dup.pool(), &dup.constraints()});
    auto b = EvaluateLicmBatch(*scan, &dup, &ctx);
    ASSERT_TRUE(b.ok());
    EXPECT_NE(b->exts, r->exts().data());
    EXPECT_EQ(b->view.rows, 5u);
    EXPECT_EQ(b->view.active, 4u);
    EXPECT_EQ(dup.pool().size(), vars_before + 1);  // the OR of the pair
  }

  // Bounds of COUNT(*) equal the possible-world oracle's.
  auto assignments =
      EnumerateValidAssignments(dup.constraints(), dup.pool().size());
  ASSERT_TRUE(assignments.ok());
  double lo = 1e300, hi = -1e300;
  const auto count = rel::CountStar(scan);
  for (const auto& a : *assignments) {
    auto v = rel::EvaluateAggregate(*count, dup.Instantiate(a));
    ASSERT_TRUE(v.ok());
    lo = std::min(lo, *v);
    hi = std::max(hi, *v);
  }
  auto ans = AnswerAggregate(*count, dup);
  ASSERT_TRUE(ans.ok());
  EXPECT_DOUBLE_EQ(ans->bounds.min.value, lo);
  EXPECT_DOUBLE_EQ(ans->bounds.max.value, hi);
  EXPECT_DOUBLE_EQ(hi, 4.0);
  // The original database still scans its own, duplicate-free columns.
  EXPECT_TRUE(db.GetRelation("trans_item").value()->IsSet());
}

TEST(ColumnarScan, RowsScannedCountsBorrowedRows) {
  metrics::Counter* scanned = metrics::MetricsRegistry::Default().GetCounter(
      "licm_query_rows_scanned_total", {{"engine", "columnar"}});
  const LicmDatabase db = NumericSet(37);
  const int64_t before = scanned->Value();
  ASSERT_TRUE(AnswerAggregate(*rel::CountStar(rel::Scan("r")), db).ok());
  EXPECT_EQ(scanned->Value() - before, 37);
}

TEST(ColumnarScan, ConcurrentFirstScansAgreeOnSetness) {
  // One relation that is a set and one that holds a duplicate, both never
  // scanned before the threads start, so their first scans race on the
  // lazily computed set-ness.
  auto build = [] {
    LicmDatabase db = NumericSet(500);
    LicmRelation dup(rel::Schema({{"tid", ValueType::kInt},
                                  {"price", ValueType::kDouble}}));
    for (int64_t i = 0; i < 300; ++i) {
      dup.AppendUnchecked({i % 250, 1.0}, Ext::Maybe(db.pool().New()));
    }
    LICM_CHECK_OK(db.AddRelation("dup", std::move(dup)));
    return db;
  };
  const auto q_set = rel::Sum(rel::Scan("r"), "price");
  const auto q_dup = rel::CountStar(rel::Scan("dup"));

  const LicmDatabase shared = build();
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<AggregateBounds> set_bounds(kThreads), dup_bounds(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto a = AnswerAggregate(*(t % 2 == 0 ? q_set : q_dup), shared);
      auto b = AnswerAggregate(*(t % 2 == 0 ? q_dup : q_set), shared);
      ASSERT_TRUE(a.ok() && b.ok());
      (t % 2 == 0 ? set_bounds : dup_bounds)[t] = a->bounds;
      (t % 2 == 0 ? dup_bounds : set_bounds)[t] = b->bounds;
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_TRUE(shared.GetRelation("r").value()->IsSet());
  EXPECT_FALSE(shared.GetRelation("dup").value()->IsSet());
  const LicmDatabase fresh = build();
  auto set_ref = AnswerAggregate(*q_set, fresh);
  auto dup_ref = AnswerAggregate(*q_dup, fresh);
  ASSERT_TRUE(set_ref.ok() && dup_ref.ok());
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(set_bounds[t].min.value, set_ref->bounds.min.value);
    EXPECT_EQ(set_bounds[t].max.value, set_ref->bounds.max.value);
    EXPECT_EQ(dup_bounds[t].min.value, dup_ref->bounds.min.value);
    EXPECT_EQ(dup_bounds[t].max.value, dup_ref->bounds.max.value);
  }
  EXPECT_DOUBLE_EQ(dup_ref->bounds.max.value, 250.0);
}

}  // namespace
}  // namespace licm
