// Unit + property tests for the MIP branch & bound solver, presolve,
// propagation, decomposition, and the LP-format writer.
#include "solver/mip_solver.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "solver/components.h"
#include "solver/lp_format.h"
#include "solver/presolve.h"
#include "solver/propagation.h"

namespace licm::solver {
namespace {

// ---- Propagation ----

TEST(Propagation, FixesForcedBinary) {
  // b1 + b2 >= 2 over binaries forces both to 1.
  LinearProgram lp;
  VarId a = lp.AddBinary();
  VarId b = lp.AddBinary();
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kGe, 2});
  Domains d = Domains::FromProgram(lp);
  ASSERT_EQ(Propagate(lp, &d), PropagateResult::kFixpoint);
  EXPECT_DOUBLE_EQ(d.lower[a], 1.0);
  EXPECT_DOUBLE_EQ(d.lower[b], 1.0);
}

TEST(Propagation, DetectsInfeasibleCardinality) {
  LinearProgram lp;
  VarId a = lp.AddBinary();
  VarId b = lp.AddBinary();
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kGe, 3});
  Domains d = Domains::FromProgram(lp);
  EXPECT_EQ(Propagate(lp, &d), PropagateResult::kInfeasible);
}

TEST(Propagation, ChainsThroughImplications) {
  // a = 1, a - b <= 0 (a implies b), b - c <= 0: all forced to 1.
  LinearProgram lp;
  VarId a = lp.AddBinary();
  VarId b = lp.AddBinary();
  VarId c = lp.AddBinary();
  lp.AddRow(Row{{{a, 1}}, RowOp::kGe, 1});
  lp.AddRow(Row{{{a, 1}, {b, -1}}, RowOp::kLe, 0});
  lp.AddRow(Row{{{b, 1}, {c, -1}}, RowOp::kLe, 0});
  Domains d = Domains::FromProgram(lp);
  ASSERT_EQ(Propagate(lp, &d), PropagateResult::kFixpoint);
  EXPECT_DOUBLE_EQ(d.lower[c], 1.0);
}

TEST(Propagation, RoundsIntegerBounds) {
  // 2x <= 5 over integer x in [0, 10] -> x <= 2.
  LinearProgram lp;
  VarId x = lp.AddVariable(0, 10, true);
  lp.AddRow(Row{{{x, 2}}, RowOp::kLe, 5});
  Domains d = Domains::FromProgram(lp);
  ASSERT_EQ(Propagate(lp, &d), PropagateResult::kFixpoint);
  EXPECT_DOUBLE_EQ(d.upper[x], 2.0);
}

// ---- Presolve ----

TEST(Presolve, FixesAndSubstitutes) {
  LinearProgram lp;
  VarId a = lp.AddBinary();
  VarId b = lp.AddBinary();
  VarId c = lp.AddBinary();
  lp.SetObjectiveCoef(a, 1);
  lp.SetObjectiveCoef(b, 1);
  lp.SetObjectiveCoef(c, 1);
  lp.AddRow(Row{{{a, 1}}, RowOp::kEq, 1});          // fixes a = 1
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kLe, 1});  // then fixes b = 0
  PresolveResult pre = Presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.stats.vars_fixed, 2u);
  EXPECT_EQ(pre.reduced.num_vars(), 1u);
  EXPECT_DOUBLE_EQ(pre.reduced.objective_constant(), 1.0);
  std::vector<double> x = pre.Postsolve({1.0});
  EXPECT_DOUBLE_EQ(x[a], 1.0);
  EXPECT_DOUBLE_EQ(x[b], 0.0);
  EXPECT_DOUBLE_EQ(x[c], 1.0);
}

TEST(Presolve, RemovesDuplicateAndRedundantRows) {
  LinearProgram lp;
  VarId a = lp.AddBinary();
  VarId b = lp.AddBinary();
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kLe, 1});
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kLe, 1});  // duplicate
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kLe, 5});  // redundant over box
  PresolveResult pre = Presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.reduced.num_rows(), 1u);
  EXPECT_EQ(pre.stats.duplicate_rows, 1u);
  EXPECT_GE(pre.stats.rows_removed, 1u);
}

TEST(Presolve, TightensSameLhsInequalities) {
  LinearProgram lp;
  VarId a = lp.AddBinary();
  VarId b = lp.AddBinary();
  VarId c = lp.AddBinary();
  lp.SetObjectiveCoef(a, 1);
  lp.SetObjectiveCoef(b, 1);
  lp.SetObjectiveCoef(c, 1);
  // Same LHS twice with different rhs: only the binding rhs survives.
  lp.AddRow(Row{{{a, 1}, {b, 1}, {c, 1}}, RowOp::kLe, 2});
  lp.AddRow(Row{{{a, 1}, {b, 1}, {c, 1}}, RowOp::kLe, 1});
  PresolveResult pre = Presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.reduced.num_rows(), 1u);
  EXPECT_EQ(pre.stats.rows_tightened, 1u);
  EXPECT_DOUBLE_EQ(pre.reduced.rows()[0].rhs, 1.0);

  // The other direction: >= keeps the larger rhs. (Three variables so
  // neither row lets bound propagation fix anything first.)
  LinearProgram ge;
  VarId x = ge.AddBinary();
  VarId y = ge.AddBinary();
  VarId z = ge.AddBinary();
  ge.AddRow(Row{{{x, 1}, {y, 1}, {z, 1}}, RowOp::kGe, 1});
  ge.AddRow(Row{{{x, 1}, {y, 1}, {z, 1}}, RowOp::kGe, 2});
  PresolveResult pge = Presolve(ge);
  ASSERT_FALSE(pge.infeasible);
  ASSERT_EQ(pge.reduced.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(pge.reduced.rows()[0].rhs, 2.0);
}

TEST(Presolve, ConflictingEqualitiesAreInfeasible) {
  LinearProgram lp;
  VarId a = lp.AddBinary();
  VarId b = lp.AddBinary();
  VarId c = lp.AddBinary();
  lp.AddRow(Row{{{a, 1}, {b, 1}, {c, -1}}, RowOp::kEq, 1});
  lp.AddRow(Row{{{a, 1}, {b, 1}, {c, -1}}, RowOp::kEq, 0});
  EXPECT_TRUE(Presolve(lp).infeasible);
}

TEST(Presolve, DetectsInfeasibility) {
  LinearProgram lp;
  VarId a = lp.AddBinary();
  lp.AddRow(Row{{{a, 1}}, RowOp::kGe, 1});
  lp.AddRow(Row{{{a, 1}}, RowOp::kLe, 0});
  EXPECT_TRUE(Presolve(lp).infeasible);
}

// ---- Decomposition ----

TEST(Decompose, SplitsIndependentBlocks) {
  LinearProgram lp;
  VarId a = lp.AddBinary();
  VarId b = lp.AddBinary();
  VarId c = lp.AddBinary();
  VarId d = lp.AddBinary();
  VarId lone = lp.AddBinary();  // appears in no row
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kLe, 1});
  lp.AddRow(Row{{{c, 1}, {d, 1}}, RowOp::kGe, 1});
  auto comps = Decompose(lp);
  ASSERT_EQ(comps.size(), 3u);
  size_t total_vars = 0, total_rows = 0;
  for (const auto& comp : comps) {
    total_vars += comp.program.num_vars();
    total_rows += comp.program.num_rows();
  }
  EXPECT_EQ(total_vars, 5u);
  EXPECT_EQ(total_rows, 2u);
  (void)lone;
}

// ---- Union-find ----

TEST(UnionFind, FindGrowsTheNodeSet) {
  UnionFind uf;
  EXPECT_EQ(uf.num_nodes(), 0u);
  EXPECT_EQ(uf.Find(4), 4u);  // grown in as a singleton
  EXPECT_EQ(uf.num_nodes(), 5u);
  EXPECT_EQ(uf.NumComponents(), 5u);
  uf.Union(1, 7);  // Union grows both ends too
  EXPECT_EQ(uf.num_nodes(), 8u);
  EXPECT_EQ(uf.Find(1), uf.Find(7));
  EXPECT_EQ(uf.NumComponents(), 7u);
}

TEST(UnionFind, EnsureNodesAddsSingletonsAndKeepsEdges) {
  UnionFind uf(3);
  uf.Union(0, 2);
  uf.EnsureNodes(2);  // shrinking is a no-op
  EXPECT_EQ(uf.num_nodes(), 3u);
  uf.EnsureNodes(6);
  EXPECT_EQ(uf.num_nodes(), 6u);
  EXPECT_EQ(uf.Find(0), uf.Find(2));
  for (uint32_t v = 3; v < 6; ++v) EXPECT_EQ(uf.Find(v), v);
  EXPECT_EQ(uf.NumComponents(), 5u);  // {0,2} {1} {3} {4} {5}
  uf.Reset(2);
  EXPECT_EQ(uf.num_nodes(), 2u);
  EXPECT_NE(uf.Find(0), uf.Find(1));
}

TEST(UnionFind, UnionAllMergesHyperedges) {
  UnionFind uf(10);
  uf.UnionAll({0, 3, 6});
  uf.UnionAll({1, 4});
  uf.UnionAll({8});  // a one-node hyperedge merges nothing
  uf.UnionAll({});
  EXPECT_EQ(uf.NumComponents(), 7u);  // {0,3,6} {1,4} 2 5 7 8 9
  EXPECT_EQ(uf.Component(6), (std::vector<uint32_t>{0, 3, 6}));
  EXPECT_EQ(uf.Component(1), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(uf.Component(9), (std::vector<uint32_t>{9}));
  uf.UnionAll({4, 6});  // bridges the two hyperedges
  EXPECT_EQ(uf.NumComponents(), 6u);
  EXPECT_EQ(uf.Component(0), (std::vector<uint32_t>{0, 1, 3, 4, 6}));
  EXPECT_EQ(uf.Find(0), uf.Find(4));
}

TEST(UnionFind, LongChainStaysOneComponent) {
  // Union by size keeps the trees shallow; path compression flattens them.
  UnionFind uf(2000);
  for (uint32_t v = 1; v < 2000; ++v) uf.Union(v - 1, v);
  EXPECT_EQ(uf.NumComponents(), 1u);
  EXPECT_EQ(uf.Component(1234).size(), 2000u);
  const uint32_t root = uf.Find(0);
  for (uint32_t v = 0; v < 2000; v += 97) EXPECT_EQ(uf.Find(v), root);
}

// ---- MIP end-to-end ----

TEST(Mip, CardinalityBlockBounds) {
  // Example 1 of the paper: 5 possible records, between 1 and 2 are true.
  // max count = 2, min count = 1.
  LinearProgram lp;
  std::vector<Term> sum;
  for (int i = 0; i < 5; ++i) {
    VarId b = lp.AddBinary();
    lp.SetObjectiveCoef(b, 1);
    sum.push_back(Term{b, 1});
  }
  lp.AddRow(Row{sum, RowOp::kGe, 1});
  lp.AddRow(Row{sum, RowOp::kLe, 2});
  MipSolver solver;
  MipResult mx = solver.Solve(lp, Sense::kMaximize);
  ASSERT_EQ(mx.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(mx.objective, 2.0);
  EXPECT_TRUE(lp.IsFeasible(mx.solution));
  MipResult mn = solver.Solve(lp, Sense::kMinimize);
  ASSERT_EQ(mn.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(mn.objective, 1.0);
  EXPECT_TRUE(lp.IsFeasible(mn.solution));
}

TEST(Mip, PermutationAssignment) {
  // 3x3 bijection; objective picks the diagonal: max = 3 only if the
  // identity is chosen; with row/col equalities the max over any weights
  // equals a max-weight perfect matching.
  LinearProgram lp;
  VarId b[3][3];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) b[i][j] = lp.AddBinary();
  for (int i = 0; i < 3; ++i) {
    Row r1, r2;
    for (int j = 0; j < 3; ++j) {
      r1.terms.push_back(Term{b[i][j], 1});
      r2.terms.push_back(Term{b[j][i], 1});
    }
    r1.op = r2.op = RowOp::kEq;
    r1.rhs = r2.rhs = 1;
    lp.AddRow(std::move(r1));
    lp.AddRow(std::move(r2));
  }
  // Weights: diag gets 1, off-diag 0. Perfect matching max = 3, min = 0.
  for (int i = 0; i < 3; ++i) lp.SetObjectiveCoef(b[i][i], 1);
  MipSolver solver;
  MipResult mx = solver.Solve(lp, Sense::kMaximize);
  ASSERT_EQ(mx.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(mx.objective, 3.0);
  MipResult mn = solver.Solve(lp, Sense::kMinimize);
  ASSERT_EQ(mn.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(mn.objective, 0.0);
}

TEST(Mip, InfeasibleReported) {
  LinearProgram lp;
  VarId a = lp.AddBinary();
  VarId b = lp.AddBinary();
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kEq, 1});
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kEq, 2});
  // Make both rows non-trivially propagatable by adding a third variable.
  MipSolver solver;
  EXPECT_EQ(solver.Solve(lp, Sense::kMaximize).status,
            SolveStatus::kInfeasible);
}

TEST(Mip, KnapsackIntegrality) {
  // max 10a + 6b + 4c st 5a + 4b + 3c <= 8 over binaries.
  // LP relax = 14.5 (a = 1, b = 3/4); integer optimum = 10 + 4 = 14 (a, c).
  LinearProgram lp;
  VarId a = lp.AddBinary();
  VarId b = lp.AddBinary();
  VarId c = lp.AddBinary();
  lp.SetObjectiveCoef(a, 10);
  lp.SetObjectiveCoef(b, 6);
  lp.SetObjectiveCoef(c, 4);
  lp.AddRow(Row{{{a, 5}, {b, 4}, {c, 3}}, RowOp::kLe, 8});
  MipResult r = MipSolver().Solve(lp, Sense::kMaximize);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, 14.0);
}

TEST(Mip, GeneralIntegerVariables) {
  // max x + y st 2x + 3y <= 12, x in [0,4] int, y in [0,3] int.
  // Optimum: x=4, y=1 -> 5 (2*4+3*1=11<=12). Check also x=3,y=2 -> 5.
  LinearProgram lp;
  VarId x = lp.AddVariable(0, 4, true);
  VarId y = lp.AddVariable(0, 3, true);
  lp.SetObjectiveCoef(x, 1);
  lp.SetObjectiveCoef(y, 1);
  lp.AddRow(Row{{{x, 2}, {y, 3}}, RowOp::kLe, 12});
  MipResult r = MipSolver().Solve(lp, Sense::kMaximize);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, 5.0);
}

TEST(Mip, NodeLimitYieldsValidInterval) {
  // Hard-ish assignment-flavoured instance with a tiny node budget: the
  // solver must degrade to kTimeLimit with objective <= true opt <= bound.
  Rng rng(7);
  const int n = 9;
  LinearProgram lp;
  std::vector<std::vector<VarId>> b(n, std::vector<VarId>(n));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      b[i][j] = lp.AddBinary();
      lp.SetObjectiveCoef(b[i][j], static_cast<double>(rng.Uniform(50)));
    }
  for (int i = 0; i < n; ++i) {
    Row r1, r2;
    for (int j = 0; j < n; ++j) {
      r1.terms.push_back(Term{b[i][j], 1});
      r2.terms.push_back(Term{b[j][i], 1});
    }
    r1.op = r2.op = RowOp::kEq;
    r1.rhs = r2.rhs = 1;
    lp.AddRow(std::move(r1));
    lp.AddRow(std::move(r2));
  }
  MipOptions tight;
  tight.max_nodes_per_component = 5;
  tight.use_lp_bound = false;
  MipResult limited = MipSolver(tight).Solve(lp, Sense::kMaximize);
  MipResult full = MipSolver().Solve(lp, Sense::kMaximize);
  ASSERT_EQ(full.status, SolveStatus::kOptimal);
  if (limited.status == SolveStatus::kTimeLimit) {
    if (limited.has_solution) {
      EXPECT_LE(limited.objective, full.objective + 1e-6);
    }
    EXPECT_GE(limited.best_bound + 1e-6, full.objective);
  }
}

TEST(Mip, SolverOptionTogglesAgree) {
  // The same instance must give identical optima across feature toggles.
  Rng rng(21);
  LinearProgram lp;
  const int groups = 6, per = 4;
  for (int g = 0; g < groups; ++g) {
    std::vector<Term> sum;
    for (int i = 0; i < per; ++i) {
      VarId v = lp.AddBinary();
      lp.SetObjectiveCoef(v, static_cast<double>(rng.UniformInt(-2, 4)));
      sum.push_back(Term{v, 1});
    }
    lp.AddRow(Row{sum, RowOp::kGe, 1});
    lp.AddRow(Row{sum, RowOp::kLe, 2});
  }
  MipResult base = MipSolver().Solve(lp, Sense::kMaximize);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);
  for (int mask = 0; mask < 8; ++mask) {
    MipOptions o;
    o.use_presolve = mask & 1;
    o.use_decomposition = mask & 2;
    o.use_lp_bound = mask & 4;
    MipResult r = MipSolver(o).Solve(lp, Sense::kMaximize);
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << "mask=" << mask;
    EXPECT_DOUBLE_EQ(r.objective, base.objective) << "mask=" << mask;
    EXPECT_TRUE(lp.IsFeasible(r.solution)) << "mask=" << mask;
  }
}

TEST(Mip, ParallelComponentsMatchSequential) {
  // Many independent cardinality blocks: parallel and sequential solves
  // must agree exactly.
  Rng rng(77);
  LinearProgram lp;
  for (int g = 0; g < 40; ++g) {
    std::vector<Term> sum;
    for (int i = 0; i < 5; ++i) {
      VarId v = lp.AddBinary();
      lp.SetObjectiveCoef(v, static_cast<double>(rng.UniformInt(-3, 5)));
      sum.push_back(Term{v, 1});
    }
    lp.AddRow(Row{sum, RowOp::kGe, 1});
    lp.AddRow(Row{sum, RowOp::kLe, 3});
  }
  MipResult seq = MipSolver().Solve(lp, Sense::kMaximize);
  MipOptions par_opts;
  par_opts.num_threads = 4;
  MipResult par = MipSolver(par_opts).Solve(lp, Sense::kMaximize);
  ASSERT_EQ(seq.status, SolveStatus::kOptimal);
  ASSERT_EQ(par.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(par.objective, seq.objective);
  EXPECT_TRUE(lp.IsFeasible(par.solution));
  EXPECT_EQ(par.stats.components, seq.stats.components);
}

// ---- MipResult::Gap ----

TEST(MipResultGap, NoSolutionIsInfinite) {
  MipResult r;
  r.status = SolveStatus::kTimeLimit;
  r.has_solution = false;
  r.best_bound = 17.0;  // a proved bound without an incumbent
  EXPECT_EQ(r.Gap(), kInfinity);
}

TEST(MipResultGap, OptimalIsZero) {
  LinearProgram lp;
  VarId a = lp.AddBinary();
  VarId b = lp.AddBinary();
  lp.SetObjectiveCoef(a, 3.0);
  lp.SetObjectiveCoef(b, 2.0);
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kLe, 1});
  MipResult r = MipSolver().Solve(lp, Sense::kMaximize);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.Gap(), 0.0);
}

TEST(MipResultGap, AbsoluteInBothSenses) {
  MipResult r;
  r.has_solution = true;
  r.objective = 10.0;
  r.best_bound = 12.5;  // maximizing: bound above incumbent
  EXPECT_DOUBLE_EQ(r.Gap(), 2.5);
  r.best_bound = 7.5;  // minimizing: bound below incumbent
  EXPECT_DOUBLE_EQ(r.Gap(), 2.5);
}

// ---- Property sweep: brute force vs solver on random binary programs ----

class MipRandom : public ::testing::TestWithParam<int> {};

TEST_P(MipRandom, MatchesBruteForce) {
  Rng rng(1000 + GetParam());
  const int n = 3 + static_cast<int>(rng.Uniform(8));  // 3..10 binaries
  const int m = 1 + static_cast<int>(rng.Uniform(6));
  LinearProgram lp;
  for (int v = 0; v < n; ++v) {
    VarId id = lp.AddBinary();
    lp.SetObjectiveCoef(id, static_cast<double>(rng.UniformInt(-3, 3)));
  }
  for (int r = 0; r < m; ++r) {
    Row row;
    for (int v = 0; v < n; ++v) {
      int64_t coef = rng.UniformInt(-2, 2);
      if (coef != 0 && rng.Bernoulli(0.7)) {
        row.terms.push_back(
            Term{static_cast<VarId>(v), static_cast<double>(coef)});
      }
    }
    if (row.terms.empty()) continue;
    row.op = static_cast<RowOp>(rng.Uniform(3));
    row.rhs = static_cast<double>(rng.UniformInt(-2, 4));
    lp.AddRow(std::move(row));
  }

  double best_max = -1e18, best_min = 1e18;
  bool feasible = false;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(n);
    for (int v = 0; v < n; ++v) x[v] = (mask >> v) & 1;
    if (lp.IsFeasible(x)) {
      feasible = true;
      const double obj = lp.EvalObjective(x);
      best_max = std::max(best_max, obj);
      best_min = std::min(best_min, obj);
    }
  }

  MipSolver solver;
  MipResult mx = solver.Solve(lp, Sense::kMaximize);
  MipResult mn = solver.Solve(lp, Sense::kMinimize);
  if (!feasible) {
    EXPECT_EQ(mx.status, SolveStatus::kInfeasible);
    EXPECT_EQ(mn.status, SolveStatus::kInfeasible);
  } else {
    ASSERT_EQ(mx.status, SolveStatus::kOptimal);
    ASSERT_EQ(mn.status, SolveStatus::kOptimal);
    EXPECT_DOUBLE_EQ(mx.objective, best_max);
    EXPECT_DOUBLE_EQ(mn.objective, best_min);
    EXPECT_TRUE(lp.IsFeasible(mx.solution));
    EXPECT_TRUE(lp.IsFeasible(mn.solution));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MipRandom, ::testing::Range(0, 120));

// ---- LP format ----

TEST(LpFormat, RendersAllSections) {
  LinearProgram lp;
  VarId a = lp.AddBinary("alpha");
  VarId x = lp.AddVariable(0, 10, true);
  VarId y = lp.AddVariable(-1, 2.5, false);
  lp.SetObjectiveCoef(a, 2);
  lp.SetObjectiveCoef(y, -1);
  lp.AddRow(Row{{{a, 1}, {x, 3}}, RowOp::kLe, 7});
  lp.AddRow(Row{{{x, 1}, {y, -2}}, RowOp::kGe, -1});
  lp.AddRow(Row{{{a, 1}, {y, 1}}, RowOp::kEq, 1});
  std::string text = ToLpFormat(lp, Sense::kMaximize);
  EXPECT_NE(text.find("Maximize"), std::string::npos);
  EXPECT_NE(text.find("Subject To"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("Binary"), std::string::npos);
  EXPECT_NE(text.find("General"), std::string::npos);
  EXPECT_NE(text.find("Bounds"), std::string::npos);
  EXPECT_NE(text.find("End"), std::string::npos);
  EXPECT_NE(text.find(" = 1"), std::string::npos);
}

}  // namespace
}  // namespace licm::solver
