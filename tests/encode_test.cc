// End-to-end tests for the Appendix encoders: LICM databases built from
// anonymized data, Monte-Carlo sampling over them, and the central sanity
// property that the original data is always one of the possible worlds and
// every sampled/extreme answer brackets the original answer.
#include "anonymize/licm_encode.h"

#include <gtest/gtest.h>

#include "licm/evaluator.h"
#include "relational/engine.h"
#include "sampler/monte_carlo.h"

namespace licm::anonymize {
namespace {

using rel::CmpOp;
using rel::Value;

data::TransactionDataset SmallDataset(uint32_t txns = 60, uint32_t items = 32,
                                      uint64_t seed = 17) {
  data::GeneratorConfig c;
  c.num_transactions = txns;
  c.num_items = items;
  c.mean_size = 3.5;
  c.num_locations = 10;
  c.num_prices = 8;
  c.seed = seed;
  return data::GenerateTransactions(c);
}

// COUNT of transactions at loc < 5 containing >= 1 item with price < 4,
// over the flattened trans_item view (the paper's Query 1 shape).
rel::QueryNodePtr Query1FlatView() {
  return rel::CountStar(rel::CountPredicate(
      rel::Select(rel::Scan("trans_item"),
                  {{"loc", CmpOp::kLt, Value(int64_t{5})},
                   {"price", CmpOp::kLt, Value(int64_t{4})}}),
      "tid", CmpOp::kGe, 1));
}

rel::QueryNodePtr Query1BipartiteView() {
  return rel::CountStar(rel::CountPredicate(
      BipartiteTransItemView({{"loc", CmpOp::kLt, Value(int64_t{5})}},
                             {{"price", CmpOp::kLt, Value(int64_t{4})}}),
      "tid", CmpOp::kGe, 1));
}

double OriginalAnswer(const data::TransactionDataset& d,
                      const rel::QueryNode& q) {
  rel::Database db;
  LICM_CHECK_OK(db.Add("trans_item", d.ToTransItem()));
  auto v = rel::EvaluateAggregate(q, db);
  LICM_CHECK_OK(v.status());
  return *v;
}

// Shared battery: original world valid; LICM bounds bracket MC bounds and
// the original answer; MC worlds satisfy the constraint set.
void RunBattery(const EncodedDb& enc, const rel::QueryNodePtr& query,
                double original_answer) {
  // (1) Original world satisfies the constraints.
  ASSERT_EQ(enc.original_world.size(), enc.db.pool().size());
  EXPECT_TRUE(enc.db.constraints().Satisfied(enc.original_world));

  // (2) Original-world instantiation answers the query with the original
  // answer (for generalization/suppression the instantiation is the
  // original flattened relation; for bipartite it composes to it).
  rel::Database world = enc.db.Instantiate(enc.original_world);
  auto v = rel::EvaluateAggregate(*query, world);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(*v, original_answer);

  // (3) MC samples are valid worlds and their answers land inside the LICM
  // bounds; the original answer does too. Proved bounds are valid outer
  // bounds even if the solver hit its time limit (permutation-encoded
  // instances can be solver-hard, as the paper observed for its Query 3).
  sampler::MonteCarloOptions mco;
  mco.num_worlds = 12;
  auto mc = sampler::MonteCarloBounds(enc.db, enc.structure, *query, mco);
  ASSERT_TRUE(mc.ok()) << mc.status().ToString();

  AnswerOptions opts;
  opts.bounds.mip.time_limit_seconds = 20.0;
  auto ans = AnswerAggregate(*query, enc.db, opts);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_LE(ans->bounds.min.proved, mc->min + 1e-9);
  EXPECT_GE(ans->bounds.max.proved, mc->max - 1e-9);
  EXPECT_LE(ans->bounds.min.proved, original_answer + 1e-9);
  EXPECT_GE(ans->bounds.max.proved, original_answer - 1e-9);
  if (ans->bounds.min.exact && ans->bounds.max.exact) {
    EXPECT_LE(ans->bounds.min.value, mc->min + 1e-9);
    EXPECT_GE(ans->bounds.max.value, mc->max - 1e-9);
  }
  // Incumbent answers are real possible-world answers: within the range.
  if (ans->bounds.min.has_world) {
    EXPECT_GE(ans->bounds.min.value, ans->bounds.min.proved - 1e-9);
    EXPECT_LE(ans->bounds.min.value, ans->bounds.max.proved + 1e-9);
  }

  // (4) Structure-drawn worlds satisfy the linear constraints.
  Rng rng(99);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(enc.db.constraints().Satisfied(enc.structure.Sample(&rng)));
  }
}

class EncodeGeneralizedSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EncodeGeneralizedSweep, KmEndToEnd) {
  auto d = SmallDataset();
  Hierarchy h = Hierarchy::BuildUniform(d.num_items, 4);
  auto anon = KmAnonymize(d, h, {GetParam(), 2});
  ASSERT_TRUE(anon.ok());
  auto enc = EncodeGeneralized(*anon, h, d);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  RunBattery(*enc, Query1FlatView(), OriginalAnswer(d, *Query1FlatView()));
}

TEST_P(EncodeGeneralizedSweep, KAnonymityEndToEnd) {
  auto d = SmallDataset();
  Hierarchy h = Hierarchy::BuildUniform(d.num_items, 4);
  auto anon = KAnonymize(d, h, {GetParam()});
  ASSERT_TRUE(anon.ok());
  auto enc = EncodeGeneralized(*anon, h, d);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  RunBattery(*enc, Query1FlatView(), OriginalAnswer(d, *Query1FlatView()));
}

INSTANTIATE_TEST_SUITE_P(K, EncodeGeneralizedSweep,
                         ::testing::Values(2, 4, 8));

class EncodeBipartiteSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EncodeBipartiteSweep, EndToEnd) {
  auto d = SmallDataset(20, 24);
  auto groups = SafeGrouping(d, {GetParam(), 2, 3});
  ASSERT_TRUE(groups.ok());
  auto enc = EncodeBipartite(*groups, d);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  RunBattery(*enc, Query1BipartiteView(),
             OriginalAnswer(d, *Query1FlatView()));
}

INSTANTIATE_TEST_SUITE_P(K, EncodeBipartiteSweep, ::testing::Values(2, 4));

TEST(EncodeBipartite, SmallInstanceSolvesExactly) {
  auto d = SmallDataset(20, 24);
  auto groups = SafeGrouping(d, {2, 2, 3});
  ASSERT_TRUE(groups.ok());
  auto enc = EncodeBipartite(*groups, d);
  ASSERT_TRUE(enc.ok());
  AnswerOptions opts;
  opts.bounds.mip.time_limit_seconds = 60.0;
  auto ans = AnswerAggregate(*Query1BipartiteView(), enc->db, opts);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans->bounds.min.exact);
  EXPECT_TRUE(ans->bounds.max.exact);
  EXPECT_LE(ans->bounds.min.value, ans->bounds.max.value);
}

TEST(EncodeBipartite, ViewComposesToOriginalUnderIdentity) {
  auto d = SmallDataset(30, 24);
  auto groups = SafeGrouping(d, {3, 2, 3});
  ASSERT_TRUE(groups.ok());
  auto enc = EncodeBipartite(*groups, d);
  ASSERT_TRUE(enc.ok());
  rel::Database world = enc->db.Instantiate(enc->original_world);
  auto view = rel::Evaluate(*BipartiteTransItemView(), world);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  rel::Relation original = d.ToTransItem();
  original.Deduplicate();
  EXPECT_TRUE(view->SetEquals(original));
}

TEST(EncodeSuppressed, EndToEnd) {
  auto d = SmallDataset(40, 40);
  auto anon = SuppressRareItems(d, {3});
  ASSERT_TRUE(anon.ok());
  ASSERT_FALSE(anon->suppressed_items.empty());
  auto enc = EncodeSuppressed(*anon, d);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  RunBattery(*enc, Query1FlatView(), OriginalAnswer(d, *Query1FlatView()));
}

TEST(EncodeGeneralized, BlowupMatchesExpansionStat) {
  auto d = SmallDataset();
  Hierarchy h = Hierarchy::BuildUniform(d.num_items, 4);
  auto anon = KmAnonymize(d, h, {4, 2});
  ASSERT_TRUE(anon.ok());
  auto enc = EncodeGeneralized(*anon, h, d);
  ASSERT_TRUE(enc.ok());
  auto stats = anon->ComputeStats(h);
  const LicmRelation& r = *enc->db.GetRelation("trans_item").value();
  EXPECT_EQ(r.size(), stats.exact_items + stats.generalized_nodes +
                          stats.expansion);
  EXPECT_EQ(enc->db.pool().size(),
            stats.generalized_nodes + stats.expansion);
}

// Monte-Carlo option validation.
TEST(MonteCarlo, RejectsBadOptions) {
  auto d = SmallDataset(20, 16);
  Hierarchy h = Hierarchy::BuildUniform(d.num_items, 4);
  auto anon = KmAnonymize(d, h, {2, 1});
  ASSERT_TRUE(anon.ok());
  auto enc = EncodeGeneralized(*anon, h, d);
  ASSERT_TRUE(enc.ok());
  sampler::MonteCarloOptions mco;
  mco.num_worlds = 0;
  EXPECT_FALSE(sampler::MonteCarloBounds(enc->db, enc->structure,
                                         *Query1FlatView(), mco)
                   .ok());
}

TEST(Sampler, RejectionSamplerFindsValidWorlds) {
  ConstraintSet cs;
  cs.AddCardinality({0, 1, 2, 3}, 1, 2);
  Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    auto a = sampler::SampleValidAssignment(cs, 4, &rng);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(cs.Satisfied(*a));
  }
}

TEST(Sampler, RejectionSamplerGivesUpOnContradiction) {
  ConstraintSet cs;
  cs.AddFix(0, 1);
  cs.AddFix(0, 0);
  Rng rng(5);
  EXPECT_FALSE(sampler::SampleValidAssignment(cs, 1, &rng, 100).ok());
}

TEST(Structure, ValidateCatchesOverlapsAndBadBounds) {
  sampler::WorldStructure s;
  s.num_vars = 4;
  s.cardinality_blocks.push_back({{0, 1}, 1, -1});
  s.cardinality_blocks.push_back({{1, 2}, 1, -1});  // overlap on var 1
  EXPECT_FALSE(s.Validate().ok());

  sampler::WorldStructure s2;
  s2.num_vars = 2;
  s2.cardinality_blocks.push_back({{0, 1}, 3, -1});  // z1 > n
  EXPECT_FALSE(s2.Validate().ok());

  sampler::WorldStructure s3;
  s3.num_vars = 3;
  s3.permutation_blocks.push_back({2, {0, 1, 2}});  // k*k != 3
  EXPECT_FALSE(s3.Validate().ok());
}

TEST(Structure, SampleRespectsCardinality) {
  sampler::WorldStructure s;
  s.num_vars = 6;
  s.cardinality_blocks.push_back({{0, 1, 2, 3, 4}, 2, 3});
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    auto a = s.Sample(&rng);
    int sum = a[0] + a[1] + a[2] + a[3] + a[4];
    EXPECT_GE(sum, 2);
    EXPECT_LE(sum, 3);
  }
}

TEST(Structure, SamplePermutationIsBijection) {
  sampler::WorldStructure s;
  s.num_vars = 9;
  sampler::PermutationBlock b;
  b.k = 3;
  b.vars = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  s.permutation_blocks.push_back(b);
  Rng rng(8);
  for (int i = 0; i < 30; ++i) {
    auto a = s.Sample(&rng);
    for (int row = 0; row < 3; ++row) {
      EXPECT_EQ(a[row * 3] + a[row * 3 + 1] + a[row * 3 + 2], 1);
      EXPECT_EQ(a[row] + a[3 + row] + a[6 + row], 1);
    }
  }
}

}  // namespace
}  // namespace licm::anonymize
