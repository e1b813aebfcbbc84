// Tests of the versioned mutation layer (licm/mutable_instance.h):
// version monotonicity, dirty-set locality per mutation kind, atomic
// validation (failed mutations commit nothing), MVCC snapshot isolation,
// and cross-version reuse of the instance-owned component cache.
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "licm/evaluator.h"
#include "licm/mutable_instance.h"
#include "relational/query.h"
#include "relational/value.h"

namespace licm {
namespace {

LinearConstraint Card(const std::vector<BVar>& vars, ConstraintOp op,
                      int64_t rhs) {
  LinearConstraint c;
  for (BVar v : vars) c.terms.push_back({v, 1});
  c.op = op;
  c.rhs = rhs;
  return c;
}

// One certain tuple plus four maybe-tuples over two independent
// components: c0 says b0 + b1 >= 1, c1 says b2 + b3 <= 1. The dirty-set
// expectations below all derive from this shape.
LicmDatabase MakeTwoComponentDb() {
  LicmDatabase db;
  rel::Schema schema({{"id", rel::ValueType::kInt},
                      {"item", rel::ValueType::kString}});
  LicmRelation r(schema);
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Certain());
  for (int i = 0; i < 4; ++i) {
    const BVar v = db.pool().New();
    r.AppendUnchecked({int64_t{2 + i}, std::string(1, char('b' + i))},
                      Ext::Maybe(v));
  }
  EXPECT_TRUE(db.AddRelation("t", std::move(r)).ok());
  db.constraints().Add(Card({0, 1}, ConstraintOp::kGe, 1));
  db.constraints().Add(Card({2, 3}, ConstraintOp::kLe, 1));
  return db;
}

rel::Tuple Row(int64_t id, const std::string& item) {
  return rel::Tuple{id, item};
}

size_t RelationSize(const MutableInstance& inst) {
  auto rel = inst.snapshot()->db.GetRelation("t");
  EXPECT_TRUE(rel.ok());
  return (*rel)->size();
}

TEST(MutableInstance, FirstSnapshotIsVersionOne) {
  MutableInstance inst(MakeTwoComponentDb());
  EXPECT_EQ(1u, inst.version());
  EXPECT_EQ(1u, inst.snapshot()->version);
  EXPECT_EQ(5u, RelationSize(inst));
}

TEST(MutableInstance, MutationsBumpVersionsMonotonically) {
  MutableInstance inst(MakeTwoComponentDb());
  auto a = inst.AppendTuples("t", {{Row(9, "z"), false, std::nullopt}});
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(2u, a->version);
  auto e = inst.EditConstraintRhs(1, ConstraintOp::kLe, 2);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(3u, e->version);
  auto c = inst.AddConstraint(Card({0}, ConstraintOp::kLe, 1));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(4u, c->version);
  MutationResult r = inst.Replace(MakeTwoComponentDb());
  EXPECT_EQ(5u, r.version);
  EXPECT_EQ(5u, inst.version());
}

TEST(MutableInstance, CertainAppendDirtiesNothing) {
  MutableInstance inst(MakeTwoComponentDb());
  auto r = inst.AppendTuples("t", {{Row(9, "z"), false, std::nullopt}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(1u, r->appended);
  EXPECT_TRUE(r->new_vars.empty());
  EXPECT_EQ(0u, r->dirty_vars);
  EXPECT_EQ(0u, r->dirty_components);
  EXPECT_EQ(2u, r->total_components);
  EXPECT_EQ(MutationResult::kNoConstraint, r->constraint_index);
  EXPECT_EQ(6u, RelationSize(inst));
}

TEST(MutableInstance, FreshMaybeAppendIsANewSingleton) {
  MutableInstance inst(MakeTwoComponentDb());
  auto before = inst.snapshot();
  auto r = inst.AppendTuples("t", {{Row(9, "z"), true, std::nullopt}});
  ASSERT_TRUE(r.ok());
  // The fresh variable is dirty (never solved) but is not a component of
  // the pre-mutation instance, so it counts beyond total_components.
  ASSERT_EQ(1u, r->new_vars.size());
  EXPECT_EQ(4u, r->new_vars[0]);
  EXPECT_EQ(1u, r->dirty_vars);
  EXPECT_EQ(1u, r->dirty_components);
  EXPECT_EQ(2u, r->total_components);
  EXPECT_EQ(5u, inst.snapshot()->db.pool().size());
  EXPECT_EQ(4u, before->db.pool().size());  // MVCC: old snapshot untouched
}

TEST(MutableInstance, ReuseVarAppendDirtiesItsComponent) {
  MutableInstance inst(MakeTwoComponentDb());
  auto r = inst.AppendTuples("t", {{Row(9, "z"), true, BVar{0}}});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->new_vars.empty());  // shared, not allocated
  EXPECT_EQ(2u, r->dirty_vars);      // b0's whole component {b0, b1}
  EXPECT_EQ(1u, r->dirty_components);
  EXPECT_EQ(4u, inst.snapshot()->db.pool().size());
}

TEST(MutableInstance, AppendValidatesTheWholeBatchBeforeCommitting) {
  MutableInstance inst(MakeTwoComponentDb());
  // Second row has the wrong arity: nothing of the batch may land.
  auto bad = inst.AppendTuples(
      "t", {{Row(9, "z"), false, std::nullopt}, {rel::Tuple{int64_t{7}},
                                                 false, std::nullopt}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(1u, inst.version());
  EXPECT_EQ(5u, RelationSize(inst));

  auto unknown = inst.AppendTuples("t", {{Row(9, "z"), true, BVar{99}}});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, unknown.status().code());
  EXPECT_NE(std::string::npos, unknown.status().message().find("b99"));
  EXPECT_EQ(1u, inst.version());

  auto norel = inst.AppendTuples("nope", {{Row(9, "z"), false, std::nullopt}});
  ASSERT_FALSE(norel.ok());
  EXPECT_EQ(1u, inst.version());
}

TEST(MutableInstance, RetractRemovesTheFirstMatchOnly) {
  MutableInstance inst(MakeTwoComponentDb());
  ASSERT_TRUE(inst.AppendTuples("t", {{Row(1, "a"), false, std::nullopt}})
                  .ok());
  ASSERT_EQ(6u, RelationSize(inst));
  auto r = inst.RetractTuples("t", {Row(1, "a")});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(1u, r->retracted);
  EXPECT_EQ(5u, RelationSize(inst));
  // The duplicate survives: exactly one (1, "a") left.
  auto rel = inst.snapshot()->db.GetRelation("t");
  ASSERT_TRUE(rel.ok());
  size_t matches = 0;
  for (size_t i = 0; i < (*rel)->size(); ++i) {
    if ((*rel)->tuple(i) == Row(1, "a")) ++matches;
  }
  EXPECT_EQ(1u, matches);
}

TEST(MutableInstance, RetractMissFailsWithoutCommitting) {
  MutableInstance inst(MakeTwoComponentDb());
  auto r = inst.RetractTuples("t", {Row(2, "b"), Row(99, "nope")});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(StatusCode::kNotFound, r.status().code());
  EXPECT_EQ(1u, inst.version());
  EXPECT_EQ(5u, RelationSize(inst));  // the matching (2, "b") stayed too
}

TEST(MutableInstance, RetractDirtiesOnlyItsComponent) {
  MutableInstance inst(MakeTwoComponentDb());
  // (4, "d") carries b2; its component is {b2, b3}.
  auto r = inst.RetractTuples("t", {Row(4, "d")});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(1u, r->retracted);
  EXPECT_EQ(2u, r->dirty_vars);
  EXPECT_EQ(1u, r->dirty_components);
  EXPECT_EQ(2u, r->total_components);
  // Variable ids are never reused: the pool keeps b2 allocated.
  EXPECT_EQ(4u, inst.snapshot()->db.pool().size());
}

TEST(MutableInstance, EditRhsDirtiesTheEditedComponentAndKeepsIndices) {
  MutableInstance inst(MakeTwoComponentDb());
  auto r = inst.EditConstraintRhs(1, ConstraintOp::kLe, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(1u, r->constraint_index);
  EXPECT_EQ(2u, r->dirty_vars);  // component {b2, b3} only
  EXPECT_EQ(1u, r->dirty_components);
  const auto& edited =
      inst.snapshot()->db.constraints().constraints()[1];
  EXPECT_EQ(2, edited.rhs);
  EXPECT_EQ(ConstraintOp::kLe, edited.op);
  EXPECT_EQ(Card({2, 3}, ConstraintOp::kLe, 2).terms, edited.terms);

  auto oob = inst.EditConstraintRhs(99, ConstraintOp::kLe, 1);
  ASSERT_FALSE(oob.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, oob.status().code());
  EXPECT_EQ(2u, inst.version());
}

TEST(MutableInstance, EditDirtiesOldAndNewComponents) {
  MutableInstance inst(MakeTwoComponentDb());
  // Rewire c0 from {b0, b1} to {b0, b2}: the old edge's component and the
  // new terms' component are both dirty.
  auto r = inst.EditConstraint(0, Card({0, 2}, ConstraintOp::kLe, 1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(0u, r->constraint_index);
  EXPECT_EQ(4u, r->dirty_vars);
  EXPECT_EQ(2u, r->dirty_components);
  // Connectivity was rebuilt: {b0, b2, b3} merged, b1 is a singleton — so
  // the next mutation still sees two components.
  auto follow = inst.AppendTuples("t", {{Row(9, "z"), false, std::nullopt}});
  ASSERT_TRUE(follow.ok());
  EXPECT_EQ(2u, follow->total_components);
}

TEST(MutableInstance, BridgingConstraintDirtiesBothComponents) {
  MutableInstance inst(MakeTwoComponentDb());
  auto r = inst.AddConstraint(Card({1, 2}, ConstraintOp::kLe, 1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(2u, r->constraint_index);  // appended after c0, c1
  EXPECT_EQ(4u, r->dirty_vars);
  EXPECT_EQ(2u, r->dirty_components);
  EXPECT_EQ(2u, r->total_components);
  // The bridge merged everything into one component.
  auto follow = inst.AddConstraint(Card({0}, ConstraintOp::kLe, 1));
  ASSERT_TRUE(follow.ok());
  EXPECT_EQ(1u, follow->total_components);

  auto unknown = inst.AddConstraint(Card({42}, ConstraintOp::kLe, 1));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, unknown.status().code());
}

TEST(MutableInstance, ReplaceDirtiesEverything) {
  MutableInstance inst(MakeTwoComponentDb());
  MutationResult r = inst.Replace(MakeTwoComponentDb());
  EXPECT_EQ(2u, r.version);
  EXPECT_EQ(2u, r.total_components);
  EXPECT_EQ(r.total_components, r.dirty_components);
  EXPECT_EQ(4u, r.dirty_vars);
}

TEST(MutableInstance, SnapshotsAreImmutableUnderMutation) {
  MutableInstance inst(MakeTwoComponentDb());
  const rel::QueryNodePtr query = rel::CountStar(rel::Scan("t"));
  auto baseline = AnswerAggregate(*query, inst.snapshot()->db, {});
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::shared_ptr<const MutableInstance::Snapshot> old = inst.snapshot();
  ASSERT_TRUE(
      inst.AppendTuples("t", {{Row(9, "z"), false, std::nullopt}}).ok());
  ASSERT_TRUE(inst.EditConstraintRhs(0, ConstraintOp::kGe, 2).ok());

  // The pre-mutation snapshot still answers exactly as before.
  EXPECT_EQ(1u, old->version);
  auto rel = old->db.GetRelation("t");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(5u, (*rel)->size());
  EXPECT_EQ(1, old->db.constraints().constraints()[0].rhs);
  auto replay = AnswerAggregate(*query, old->db, {});
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(baseline->bounds.min.value, replay->bounds.min.value);
  EXPECT_EQ(baseline->bounds.max.value, replay->bounds.max.value);
}

TEST(MutableInstance, CrossVersionCacheServesUntouchedComponents) {
  MutableInstance inst(MakeTwoComponentDb());
  const rel::QueryNodePtr query = rel::CountStar(rel::Scan("t"));

  // COUNT(*) over 1 certain + 4 maybe tuples, b0+b1 >= 1, b2+b3 <= 1.
  auto cold = inst.Answer(*query);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(2.0, cold->bounds.min.value);
  EXPECT_EQ(4.0, cold->bounds.max.value);
  const auto primed = inst.cache()->Snapshot();
  EXPECT_GT(primed.inserts, 0u);
  EXPECT_EQ(0u, primed.cross_epoch_hits);

  // Touch only component {b2, b3}: flip c1 to b2 + b3 >= 1.
  auto edit = inst.EditConstraintRhs(1, ConstraintOp::kGe, 1);
  ASSERT_TRUE(edit.ok());
  EXPECT_EQ(1u, edit->dirty_components);

  auto warm = inst.Answer(*query);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(3.0, warm->bounds.min.value);
  EXPECT_EQ(5.0, warm->bounds.max.value);
  const auto after = inst.cache()->Snapshot();
  // The untouched component {b0, b1} re-canonicalized to its pre-commit
  // fingerprints and was served across the version bump; nothing was
  // evicted to make that happen.
  EXPECT_GT(after.cross_epoch_hits, 0u);
  EXPECT_EQ(0u, after.evictions);

  // And the warm answer is bit-identical to a from-scratch solve.
  auto scratch = AnswerAggregate(*query, inst.snapshot()->db, {});
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(scratch->bounds.min.value, warm->bounds.min.value);
  EXPECT_EQ(scratch->bounds.max.value, warm->bounds.max.value);
  EXPECT_EQ(scratch->bounds.min.exact, warm->bounds.min.exact);
  EXPECT_EQ(scratch->bounds.max.exact, warm->bounds.max.exact);
}

// 600 maybe-tuples b0..b599 tied into one connected component by
// b_i <= b0: more variables than the solve cache admits (512), yet both
// sides close at the root (all-zero and all-one are feasible).
LicmDatabase MakeOneWideComponentDb() {
  LicmDatabase db;
  LicmRelation r(rel::Schema({{"id", rel::ValueType::kInt}}));
  for (int64_t i = 0; i < 600; ++i) {
    r.AppendUnchecked({i}, Ext::Maybe(db.pool().New()));
  }
  EXPECT_TRUE(db.AddRelation("t", std::move(r)).ok());
  for (BVar v = 1; v < 600; ++v) {
    LinearConstraint c;
    c.terms = {{v, 1}, {0, -1}};
    c.op = ConstraintOp::kLe;
    c.rhs = 0;
    db.constraints().Add(c);
  }
  return db;
}

TEST(MutableInstance, ComponentsAboveCacheCapAreNeverFingerprinted) {
  MutableInstance inst(MakeOneWideComponentDb());
  const rel::QueryNodePtr query = rel::CountStar(rel::Scan("t"));
  auto first = inst.Answer(*query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = inst.Answer(*query);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  // The component is searched afresh both times: the cache is the only
  // memory across answers, and it cannot hold a component this wide, so
  // fingerprinting it would be pure cost.
  for (const auto* a : {&*first, &*second}) {
    EXPECT_EQ(1u, a->bounds.stats.components);
    EXPECT_EQ(0, a->bounds.stats.canonical_forms);
    EXPECT_EQ(0.0, a->bounds.min.value);
    EXPECT_EQ(600.0, a->bounds.max.value);
    EXPECT_TRUE(a->bounds.min.exact);
    EXPECT_TRUE(a->bounds.max.exact);
  }
  EXPECT_EQ(0, inst.cache()->Snapshot().inserts);
}

TEST(MutableInstance, CommitsLeaveHeldSnapshotRelationsAlone) {
  LicmDatabase db = MakeTwoComponentDb();
  LicmRelation other(rel::Schema({{"id", rel::ValueType::kInt}}));
  other.AppendUnchecked({int64_t{7}}, Ext::Certain());
  ASSERT_TRUE(db.AddRelation("u", std::move(other)).ok());
  MutableInstance inst(std::move(db));

  std::shared_ptr<const MutableInstance::Snapshot> old = inst.snapshot();
  const LicmRelation* old_t = old->db.GetRelation("t").value();
  const std::vector<rel::Tuple> tuples = old_t->tuples();
  const std::vector<Ext> exts = old_t->exts();

  ASSERT_TRUE(
      inst.AppendTuples("t", {{Row(9, "z"), true, std::nullopt}}).ok());
  std::shared_ptr<const MutableInstance::Snapshot> mid = inst.snapshot();
  ASSERT_TRUE(inst.RetractTuples("t", {Row(2, "b")}).ok());

  // Every commit wrote a private copy of "t"; the held versions kept
  // theirs.
  EXPECT_EQ(old->db.GetRelation("t").value(), old_t);
  EXPECT_EQ(old_t->tuples(), tuples);
  EXPECT_EQ(old_t->exts(), exts);
  EXPECT_EQ(6u, mid->db.GetRelation("t").value()->size());
  EXPECT_EQ(5u, RelationSize(inst));
  // The relation no commit touched is one object across all versions.
  EXPECT_EQ(old->db.GetRelation("u").value(),
            inst.snapshot()->db.GetRelation("u").value());
}

TEST(MutableInstance, QueriesOnAHeldSnapshotRaceCommits) {
  MutableInstance inst(MakeTwoComponentDb());
  const rel::QueryNodePtr query = rel::CountStar(rel::Scan("t"));
  std::shared_ptr<const MutableInstance::Snapshot> held = inst.snapshot();
  auto baseline = AnswerAggregate(*query, held->db, {});
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::atomic<bool> done{false};
  std::atomic<int> answers{0}, mismatches{0};
  std::thread reader([&] {
    while (!done.load() || answers.load() < 3) {
      auto a = AnswerAggregate(*query, held->db, {});
      if (!a.ok() || a->bounds.min.value != baseline->bounds.min.value ||
          a->bounds.max.value != baseline->bounds.max.value) {
        ++mismatches;
      }
      ++answers;
    }
  });
  // Each commit copies the current snapshot while the reader copies the
  // held one: both share "t" until the commit clones it.
  bool committed = true;
  for (int i = 0; i < 20 && committed; ++i) {
    committed =
        inst.AppendTuples("t", {{Row(50 + i, "w"), true, std::nullopt}})
            .ok() &&
        inst.RetractTuples("t", {Row(50 + i, "w")}).ok();
  }
  done = true;
  reader.join();
  EXPECT_TRUE(committed);
  EXPECT_EQ(0, mismatches.load());
  EXPECT_EQ(41u, inst.version());
  EXPECT_EQ(5u, RelationSize(inst));
  EXPECT_EQ(5u, held->db.GetRelation("t").value()->size());
}

}  // namespace
}  // namespace licm
