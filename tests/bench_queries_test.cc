// Validates the benchmark harness's paper-query builders: on *certain*
// data (the identity world of a bipartite encoding), the flat-view and
// bipartite-view formulations of each query must return the same answer,
// and both must match a straightforward reference computation.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "harness.h"
#include "relational/engine.h"

namespace licm::bench {
namespace {

data::TransactionDataset Dataset() {
  data::GeneratorConfig c;
  c.num_transactions = 400;
  c.num_items = 60;
  c.seed = 23;
  return data::GenerateTransactions(c);
}

// Reference implementations straight off the paper's query definitions.
int64_t RefQ1(const data::TransactionDataset& d, const QueryParams& p) {
  int64_t count = 0;
  for (const auto& t : d.transactions) {
    if (t.location >= p.q1_pa_max_loc) continue;
    for (auto i : t.items) {
      if (d.price[i] < p.q1_pb_max_price) {
        ++count;
        break;
      }
    }
  }
  return count;
}

int64_t RefQ2(const data::TransactionDataset& d, const QueryParams& p) {
  int64_t count = 0;
  for (const auto& t : d.transactions) {
    if (t.location >= p.q2_pa_max_loc) continue;
    int64_t pb = 0, pc = 0;
    for (auto i : t.items) {
      if (d.price[i] < p.q2_pb_max_price) ++pb;
      if (d.price[i] >= p.q2_pc_min_price) ++pc;
    }
    if (pb >= p.q2_x && pc >= p.q2_y) ++count;
  }
  return count;
}

int64_t RefQ3(const data::TransactionDataset& d, const QueryParams& p) {
  std::unordered_map<data::ItemId, int64_t> support;
  for (const auto& t : d.transactions) {
    if (t.location >= p.q3_pb_max_loc) continue;
    for (auto i : t.items) ++support[i];
  }
  std::unordered_set<data::ItemId> popular;
  for (const auto& [i, s] : support) {
    if (s >= p.q3_x) popular.insert(i);
  }
  int64_t count = 0;
  for (const auto& t : d.transactions) {
    if (t.location >= p.q3_pa_max_loc) continue;
    for (auto i : t.items) {
      if (popular.contains(i)) {
        ++count;
        break;
      }
    }
  }
  return count;
}

class PaperQueries : public ::testing::TestWithParam<int> {};

TEST_P(PaperQueries, FlatMatchesReference) {
  const int q = GetParam();
  auto d = Dataset();
  QueryParams p;
  p.q3_x = 3;  // keep Q3 non-degenerate at this scale
  rel::Database db;
  LICM_CHECK_OK(db.Add("trans_item", d.ToTransItem()));
  auto v = rel::EvaluateAggregate(*BuildFlatQuery(q, p), db);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const int64_t expected = q == 1 ? RefQ1(d, p) : q == 2 ? RefQ2(d, p)
                                                         : RefQ3(d, p);
  EXPECT_DOUBLE_EQ(*v, static_cast<double>(expected));
}

TEST_P(PaperQueries, BipartiteViewMatchesFlatOnIdentityWorld) {
  const int q = GetParam();
  auto d = Dataset();
  QueryParams p;
  p.q3_x = 3;
  auto groups = anonymize::SafeGrouping(d, {2, 2, 3});
  ASSERT_TRUE(groups.ok());
  auto enc = anonymize::EncodeBipartite(*groups, d);
  ASSERT_TRUE(enc.ok());
  rel::Database identity = enc->db.Instantiate(enc->original_world);
  auto bip = rel::EvaluateAggregate(*BuildBipartiteQuery(q, p), identity);
  ASSERT_TRUE(bip.ok()) << bip.status().ToString();

  rel::Database flat;
  LICM_CHECK_OK(flat.Add("trans_item", d.ToTransItem()));
  auto ref = rel::EvaluateAggregate(*BuildFlatQuery(q, p), flat);
  ASSERT_TRUE(ref.ok());
  EXPECT_DOUBLE_EQ(*bip, *ref);
}

INSTANTIATE_TEST_SUITE_P(Q, PaperQueries, ::testing::Values(1, 2, 3));

TEST(Harness, RunCellProducesConsistentBounds) {
  BenchConfig config;
  config.num_transactions = 300;
  config.bipartite_transactions = 20;
  config.num_items = 40;
  config.solver_time_limit = 20.0;
  config.bipartite_time_limit = 10.0;
  QueryParams params;
  for (Scheme s : {Scheme::kKm, Scheme::kKAnon, Scheme::kBipartite}) {
    auto cell = RunCell(s, 1, 2, config, params);
    ASSERT_TRUE(cell.ok()) << SchemeName(s) << ": "
                           << cell.status().ToString();
    EXPECT_LE(cell->l_min, cell->m_min + 1e-9) << SchemeName(s);
    EXPECT_GE(cell->l_max, cell->m_max - 1e-9) << SchemeName(s);
    EXPECT_GE(cell->vars_query, cell->vars_pruned) << SchemeName(s);
    EXPECT_GE(cell->cons_query, cell->cons_pruned) << SchemeName(s);
  }
}

// The node LP is what proves the bipartite Query-1 cell (k = 4, 90
// transactions, seed 43, one thread, 2000-node budget per component):
// with it both sides are exact at [1, 6] within 92 nodes; without it the
// search stops at the node budget with a side unproved.
TEST(Harness, NodeLpProvesBipartiteQuery1) {
  data::GeneratorConfig gen;
  gen.num_transactions = 90;
  gen.num_items = 120;
  gen.seed = 43;
  const data::TransactionDataset d = data::GenerateTransactions(gen);
  auto groups = anonymize::SafeGrouping(d, {4, 2, 43});
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  auto enc = anonymize::EncodeBipartite(*groups, d);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  const rel::QueryNodePtr query = BuildBipartiteQuery(1, QueryParams{});

  AnswerOptions opt;
  opt.bounds.mip.num_threads = 1;
  opt.bounds.mip.max_nodes_per_component = 2000;
  opt.bounds.mip.time_limit_seconds = 3600.0;
  auto with_lp = AnswerAggregate(*query, enc->db, opt);
  ASSERT_TRUE(with_lp.ok()) << with_lp.status().ToString();
  EXPECT_TRUE(with_lp->bounds.min.exact);
  EXPECT_TRUE(with_lp->bounds.max.exact);
  EXPECT_EQ(with_lp->bounds.min.value, 1.0);
  EXPECT_EQ(with_lp->bounds.max.value, 6.0);
  EXPECT_LE(with_lp->bounds.stats.nodes, 92);
  // The prologue leaves this cell open, so the node LP still runs on it.
  EXPECT_GT(with_lp->bounds.stats.lp_pivots, 0);

  opt.bounds.mip.use_lp_bound = false;
  auto without_lp = AnswerAggregate(*query, enc->db, opt);
  ASSERT_TRUE(without_lp.ok()) << without_lp.status().ToString();
  EXPECT_FALSE(without_lp->bounds.min.exact && without_lp->bounds.max.exact);
}

}  // namespace
}  // namespace licm::bench
