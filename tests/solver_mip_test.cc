// Unit + property tests for the MIP branch & bound solver, root
// completion, propagation, decomposition, and the LP-format writer.
#include "solver/mip_solver.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "solver/components.h"
#include "solver/lp_format.h"
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

// A random binary program that the 0/1 point `planted` satisfies: rows
// over a few random variables with small integer coefficients, random
// senses, and right-hand sides at or near the planted activity.
LinearProgram PlantedBinaryRows(Rng* rng, const std::vector<double>& planted,
                                int m) {
  LinearProgram lp;
  for (size_t v = 0; v < planted.size(); ++v) lp.AddBinary();
  for (int r = 0; r < m; ++r) {
    Row row;
    double act = 0.0;
    const int len = 2 + static_cast<int>(rng->Uniform(4));
    for (int i = 0; i < len; ++i) {
      const int64_t c = rng->UniformInt(-3, 3);
      const VarId v = static_cast<VarId>(rng->Uniform(planted.size()));
      if (c == 0) continue;
      row.terms.push_back(Term{v, static_cast<double>(c)});
      act += static_cast<double>(c) * planted[v];
    }
    row.op = static_cast<RowOp>(rng->Uniform(3));
    const double slack = static_cast<double>(rng->Uniform(2));
    row.rhs = row.op == RowOp::kLe   ? act + slack
              : row.op == RowOp::kGe ? act - slack
                                     : act;
    lp.AddRow(std::move(row));
  }
  return lp;
}

TEST(Propagation, FixpointIsIndependentOfRowOrder) {
  // From a propagated root, fix a few variables, then propagate from every
  // row and from the rows of the fixed variables in shuffled orders: all
  // runs must agree on feasibility and, when feasible, on every bound.
  Rng rng(26);
  int compared = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<double> planted(6 + rng.Uniform(12));
    for (double& x : planted) x = static_cast<double>(rng.Uniform(2));
    const LinearProgram lp = PlantedBinaryRows(&rng, planted, planted.size());
    const Propagator prop(lp);
    Domains root = Domains::FromProgram(lp);
    if (prop.Run(&root) == PropagateResult::kInfeasible) continue;
    Domains fixed = root;
    std::vector<VarId> touched;
    for (VarId v = 0; v < lp.num_vars(); ++v) {
      if (fixed.IsFixed(v) || rng.Uniform(3) != 0) continue;
      // Mostly the planted value, so that many runs stay feasible.
      fixed.lower[v] = fixed.upper[v] =
          rng.Uniform(4) == 0 ? 1.0 - planted[v] : planted[v];
      touched.push_back(v);
    }
    Domains all = fixed;
    const PropagateResult want = prop.Run(&all);
    for (int shuffle = 0; shuffle < 3; ++shuffle) {
      for (size_t i = touched.size(); i > 1; --i) {
        std::swap(touched[i - 1], touched[rng.Uniform(i)]);
      }
      Domains part = fixed;
      PropagationScratch scratch;
      ASSERT_EQ(prop.Run(&part, touched, nullptr, &scratch), want)
          << "iter " << iter;
      if (want == PropagateResult::kInfeasible) continue;
      EXPECT_EQ(part.lower, all.lower) << "iter " << iter;
      EXPECT_EQ(part.upper, all.upper) << "iter " << iter;
      ++compared;
    }
  }
  EXPECT_GT(compared, 300);
}

TEST(Propagation, LongRowFixesEveryTermInOneVisit) {
  // sum(x) <= 0 over 64 binaries fixes all 64 in one run, each bound
  // written (and recorded) exactly once.
  LinearProgram lp;
  Row row{{}, RowOp::kLe, 0};
  for (int v = 0; v < 64; ++v) {
    row.terms.push_back(Term{lp.AddBinary(), 1});
  }
  lp.AddRow(std::move(row));
  Domains d = Domains::FromProgram(lp);
  BoundTrail trail;
  ASSERT_EQ(Propagator(lp).Run(&d, &trail), PropagateResult::kFixpoint);
  EXPECT_EQ(trail.size(), 64u);
  for (VarId v = 0; v < 64; ++v) EXPECT_EQ(d.upper[v], 0.0);
}

// ---- Infeasibility without presolve ----

TEST(Mip, ConflictingEqualitiesAreInfeasible) {
  LinearProgram lp;
  VarId a = lp.AddBinary();
  VarId b = lp.AddBinary();
  VarId c = lp.AddBinary();
  lp.AddRow(Row{{{a, 1}, {b, 1}, {c, -1}}, RowOp::kEq, 1});
  lp.AddRow(Row{{{a, 1}, {b, 1}, {c, -1}}, RowOp::kEq, 0});
  for (Sense sense : {Sense::kMaximize, Sense::kMinimize}) {
    EXPECT_EQ(MipSolver().Solve(lp, sense).status, SolveStatus::kInfeasible);
  }
}

TEST(Mip, DetectsInfeasibility) {
  LinearProgram lp;
  VarId a = lp.AddBinary();
  lp.AddRow(Row{{{a, 1}}, RowOp::kGe, 1});
  lp.AddRow(Row{{{a, 1}}, RowOp::kLe, 0});
  for (Sense sense : {Sense::kMaximize, Sense::kMinimize}) {
    EXPECT_EQ(MipSolver().Solve(lp, sense).status, SolveStatus::kInfeasible);
  }
}

TEST(Mip, ViolatedEmptyRowIsInfeasible) {
  // `0 >= 1` constrains no variable, so decomposition drops it into no
  // component; it must still make the program infeasible, with or without
  // decomposition. A satisfied empty row (`0 <= 1`) changes nothing.
  LinearProgram lp;
  VarId a = lp.AddBinary();
  lp.SetObjectiveCoef(a, 1.0);
  lp.AddRow(Row{{}, RowOp::kLe, 1});
  MipOptions whole;
  whole.use_decomposition = false;
  for (const MipOptions& opt : {MipOptions{}, whole}) {
    const MipResult ok = MipSolver(opt).Solve(lp, Sense::kMaximize);
    ASSERT_EQ(ok.status, SolveStatus::kOptimal);
    EXPECT_EQ(ok.objective, 1.0);
  }
  lp.AddRow(Row{{}, RowOp::kGe, 1});
  for (const MipOptions& opt : {MipOptions{}, whole}) {
    EXPECT_EQ(MipSolver(opt).Solve(lp, Sense::kMaximize).status,
              SolveStatus::kInfeasible);
    EXPECT_EQ(MipSolver(opt).SolveMinMax(lp).min.status,
              SolveStatus::kInfeasible);
  }
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
  bool infeasible = true;
  auto comps = Decompose(lp, &infeasible);
  EXPECT_FALSE(infeasible);
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
  for (int mask = 0; mask < 4; ++mask) {
    MipOptions o;
    o.use_decomposition = mask & 1;
    o.use_lp_bound = mask & 2;
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
