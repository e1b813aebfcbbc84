// Unit tests for the incremental dual simplex (warm-started node
// relaxations), when a component search engages it, reduced-cost fixing,
// and cardinality cut separation.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "solver/cuts.h"
#include "solver/linear_program.h"
#include "solver/mip_solver.h"
#include "solver/simplex.h"

namespace licm::solver {
namespace {

// Builds a random LP over binary boxes (continuous vars in [0,1], the
// regime IncrementalLp targets) with small integer data.
LinearProgram RandomBoxLp(uint64_t seed, int* out_n) {
  Rng rng(seed);
  const int n = 2 + static_cast<int>(rng.Uniform(5));  // 2..6 vars
  const int m = 1 + static_cast<int>(rng.Uniform(5));
  LinearProgram lp;
  for (int v = 0; v < n; ++v) {
    VarId id = lp.AddVariable(0, 1, false);
    lp.SetObjectiveCoef(id, static_cast<double>(rng.UniformInt(-3, 3)));
  }
  for (int r = 0; r < m; ++r) {
    Row row;
    for (int v = 0; v < n; ++v) {
      int64_t c = rng.UniformInt(-2, 2);
      if (c != 0) {
        row.terms.push_back(Term{static_cast<VarId>(v),
                                 static_cast<double>(c)});
      }
    }
    row.op = static_cast<RowOp>(rng.Uniform(3));
    row.rhs = static_cast<double>(rng.UniformInt(-1, 3));
    if (row.terms.empty()) continue;
    lp.AddRow(std::move(row));
  }
  *out_n = n;
  return lp;
}

// The node LP engages only where the prologue leaves a gap: a component
// that the root completion or the first objective dive closes solves with
// no LP work at all, and no node (the search never pushes its root), and
// one with a fractional relaxation still gets its root LP.
MipOptions SingleComponentOptions() {
  MipOptions opt;
  opt.use_decomposition = false;  // keep the component whole
  opt.use_cache = false;
  opt.num_threads = 1;
  return opt;
}

void ExpectNoLpWork(const MipResult& r) {
  EXPECT_EQ(r.stats.warm_lp_solves, 0);
  EXPECT_EQ(r.stats.lp_pivots, 0);
  EXPECT_EQ(r.stats.strong_branch_solves, 0);
  EXPECT_EQ(r.stats.cuts_generated, 0);
}

TEST(LpEngagement, PreferredCornerClosesWithoutLp) {
  // max x0 + x1 + x2 with each objective variable excluding one filler:
  // the corner x0 = x1 = x2 = 1, fillers 0 satisfies every row.
  LinearProgram lp;
  for (int v = 0; v < 6; ++v) lp.AddBinary();
  for (VarId v = 0; v < 3; ++v) {
    lp.SetObjectiveCoef(v, 1.0);
    lp.AddRow(Row{{{v, 1}, {v + 3, 1}}, RowOp::kLe, 1});
  }
  lp.AddRow(Row{{{3, 1}, {4, 1}, {5, 1}}, RowOp::kLe, 2});
  const MipResult r =
      MipSolver(SingleComponentOptions()).Solve(lp, Sense::kMaximize);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_EQ(r.objective, 3.0);
  EXPECT_EQ(r.best_bound, 3.0);
  EXPECT_EQ(r.stats.nodes, 0);
  EXPECT_EQ(r.stats.root_completion_failures, 0);
  ExpectNoLpWork(r);
  // The completion of a feasible corner is that corner.
  EXPECT_EQ(r.solution, (std::vector<double>{1, 1, 1, 0, 0, 0}));
}

TEST(LpEngagement, RootCompletionClosesAnOrObjective) {
  // max y s.t. y <= x1 + x2 (an OR input) and x2 + x3 >= 1 (a cover).
  // The preferred corner (y = 1, the rest 0) breaks the OR row; the
  // completion raises x2, the last open variable of that row, which also
  // covers the cover row: incumbent 1 = activity bound, closed at the root.
  LinearProgram lp;
  for (int v = 0; v < 4; ++v) lp.AddBinary();
  lp.SetObjectiveCoef(0, 1.0);
  lp.AddRow(Row{{{0, 1}, {1, -1}, {2, -1}}, RowOp::kLe, 0});
  lp.AddRow(Row{{{2, 1}, {3, 1}}, RowOp::kGe, 1});
  const MipResult r =
      MipSolver(SingleComponentOptions()).Solve(lp, Sense::kMaximize);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_EQ(r.objective, 1.0);
  EXPECT_EQ(r.best_bound, 1.0);
  EXPECT_EQ(r.stats.nodes, 0);
  EXPECT_EQ(r.stats.root_completion_failures, 0);
  ExpectNoLpWork(r);
  EXPECT_EQ(r.solution, (std::vector<double>{1, 0, 1, 0}));
}

TEST(LpEngagement, ThresholdRowClosesAtTheRoot) {
  // max y s.t. 2y <= x1 + x2 + x3 (a COUNT >= 2 threshold). With y = 1
  // the row needs two of the three inputs: x1 is left at 0 while x2 and
  // x3 can still cover the deficit, then x2 and x3 are raised because
  // the rest of the row no longer can. Raising only the last open input
  // would leave the row short.
  LinearProgram lp;
  for (int v = 0; v < 4; ++v) lp.AddBinary();
  lp.SetObjectiveCoef(3, 1.0);
  lp.AddRow(Row{{{0, -1}, {1, -1}, {2, -1}, {3, 2}}, RowOp::kLe, 0});
  const MipResult r =
      MipSolver(SingleComponentOptions()).Solve(lp, Sense::kMaximize);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_EQ(r.objective, 1.0);
  EXPECT_EQ(r.stats.nodes, 0);
  EXPECT_EQ(r.stats.root_completion_failures, 0);
  ExpectNoLpWork(r);
  EXPECT_EQ(r.solution, (std::vector<double>{0, 1, 1, 1}));
}

// Best objective over every 0/1 point of `lp` (maximizing), or -inf.
double BruteForceMax(const LinearProgram& lp) {
  const size_t n = lp.num_vars();
  double best = -kInfinity;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    std::vector<double> x(n);
    for (size_t v = 0; v < n; ++v) x[v] = static_cast<double>((mask >> v) & 1);
    if (lp.IsFeasible(x)) best = std::max(best, lp.EvalObjective(x));
  }
  return best;
}

// y1 + y2 >= 1, y1 + y3 >= 1 and y2 + y3 <= 1 over fillers y1 < y2 < y3
// (ids `first`, +1, +2): nothing propagates at the root, and the
// completion (y1 = 0, which forces y2 = 1 and y3 = 1) breaks the <= row.
void AddCompletionTrap(VarId first, LinearProgram* lp) {
  const VarId y1 = first, y2 = first + 1, y3 = first + 2;
  lp->AddRow(Row{{{y1, 1}, {y2, 1}}, RowOp::kGe, 1});
  lp->AddRow(Row{{{y1, 1}, {y3, 1}}, RowOp::kGe, 1});
  lp->AddRow(Row{{{y2, 1}, {y3, 1}}, RowOp::kLe, 1});
}

TEST(LpEngagement, FailedCompletionFallsBackToTheDive) {
  // max 2 x0 + x1, where x0 = 1 asks three pigeons p[i] (two holes each,
  // ids 2 + 2i + j) into two holes that take one pigeon each, and x1 + p[0]
  // [0] <= 1. Propagation cannot refute the pigeonhole, so fixing x0 = x1
  // = 1 propagates; the completion then puts every pigeon in hole 1 and
  // breaks that hole's <= row. The search proves the optimum (1, below
  // the activity bound 3), which must equal brute force both ways.
  LinearProgram lp;
  for (int v = 0; v < 8; ++v) lp.AddBinary();
  lp.SetObjectiveCoef(0, 2.0);
  lp.SetObjectiveCoef(1, 1.0);
  auto pigeon = [](VarId i, VarId j) { return 2 + 2 * i + j; };
  for (VarId i = 0; i < 3; ++i) {
    lp.AddRow(Row{{{pigeon(i, 0), 1}, {pigeon(i, 1), 1}, {0, -1}},
                  RowOp::kGe, 0});
  }
  for (VarId j = 0; j < 2; ++j) {
    lp.AddRow(Row{{{pigeon(0, j), 1}, {pigeon(1, j), 1}, {pigeon(2, j), 1}},
                  RowOp::kLe, 1});
  }
  lp.AddRow(Row{{{1, 1}, {pigeon(0, 0), 1}}, RowOp::kLe, 1});
  const MipSolver solver(SingleComponentOptions());
  const MipResult max = solver.Solve(lp, Sense::kMaximize);
  ASSERT_EQ(max.status, SolveStatus::kOptimal);
  EXPECT_EQ(max.objective, 1.0);
  EXPECT_EQ(max.objective, BruteForceMax(lp));
  EXPECT_TRUE(lp.IsFeasible(max.solution));

  LinearProgram neg = lp;
  neg.SetObjectiveCoef(0, -2.0);
  neg.SetObjectiveCoef(1, -1.0);
  const MipResult min = solver.Solve(lp, Sense::kMinimize);
  ASSERT_EQ(min.status, SolveStatus::kOptimal);
  EXPECT_EQ(min.objective, -BruteForceMax(neg));
  EXPECT_TRUE(lp.IsFeasible(min.solution));
}

TEST(LpEngagement, ObjectiveDiveClosesWithoutLp) {
  // max x0 + x1 over the completion trap on x2..x4: the completion fails,
  // and the first dive (x2 = 0 refuted, so x2 = 1) reaches the activity
  // bound 2.
  LinearProgram lp;
  for (int v = 0; v < 5; ++v) lp.AddBinary();
  lp.SetObjectiveCoef(0, 1.0);
  lp.SetObjectiveCoef(1, 1.0);
  AddCompletionTrap(2, &lp);
  lp.AddRow(Row{{{0, 1}, {1, 1}, {2, 1}}, RowOp::kLe, 3});
  const MipResult r =
      MipSolver(SingleComponentOptions()).Solve(lp, Sense::kMaximize);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_EQ(r.objective, 2.0);
  EXPECT_EQ(r.best_bound, 2.0);
  EXPECT_EQ(r.stats.nodes, 0);
  EXPECT_EQ(r.stats.root_completion_failures, 1);
  ExpectNoLpWork(r);
}

TEST(LpEngagement, OpenGapStillSolvesTheRootLp) {
  // Pairwise exclusion over three objective variables: the activity
  // bound is 3, every world reaches 1, and only the relaxation (1.5,
  // floored to 1) closes the gap.
  LinearProgram lp;
  for (int v = 0; v < 3; ++v) {
    lp.AddBinary();
    lp.SetObjectiveCoef(static_cast<VarId>(v), 1.0);
  }
  lp.AddRow(Row{{{0, 1}, {1, 1}}, RowOp::kLe, 1});
  lp.AddRow(Row{{{1, 1}, {2, 1}}, RowOp::kLe, 1});
  lp.AddRow(Row{{{0, 1}, {2, 1}}, RowOp::kLe, 1});
  const MipResult r =
      MipSolver(SingleComponentOptions()).Solve(lp, Sense::kMaximize);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_EQ(r.objective, 1.0);
  EXPECT_GT(r.stats.warm_lp_solves, 0);
  EXPECT_GT(r.stats.lp_pivots, 0);
}

// Dual simplex from the cold all-slack basis must agree with the primal
// two-phase engine on every random LP (optimal value, or both infeasible).
class IncrementalLpRandom : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalLpRandom, ColdSolveMatchesPrimalSimplex) {
  int n = 0;
  LinearProgram lp = RandomBoxLp(static_cast<uint64_t>(GetParam()), &n);
  ASSERT_TRUE(IncrementalLp::Suitable(lp));
  LpSolution ref = SolveLpRelaxation(lp, Sense::kMaximize);
  IncrementalLp inc(lp);
  std::vector<double> lo(n, 0.0), hi(n, 1.0);
  SolveStatus st = inc.Solve(lo, hi);
  ASSERT_EQ(st, ref.status);
  if (st == SolveStatus::kOptimal) {
    EXPECT_NEAR(inc.objective(), ref.objective, 1e-6);
    EXPECT_TRUE(lp.IsFeasible(inc.values(), 1e-6));
  }
}

// Warm re-solves under tightened bounds must match a cold primal solve of
// the equivalently-bounded program — the correctness core of the
// warm-started node relaxation.
TEST_P(IncrementalLpRandom, WarmResolveMatchesColdUnderBoundFlips) {
  int n = 0;
  LinearProgram lp = RandomBoxLp(static_cast<uint64_t>(GetParam()) + 1000, &n);
  IncrementalLp inc(lp);
  std::vector<double> lo(n, 0.0), hi(n, 1.0);
  (void)inc.Solve(lo, hi);  // establish a basis
  Rng rng(static_cast<uint64_t>(GetParam()) + 5000);
  for (int step = 0; step < 8; ++step) {
    // Randomly fix / unfix one variable, like a B&B descent with
    // backtracking.
    const int v = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
    switch (rng.Uniform(3)) {
      case 0: lo[v] = hi[v] = 0.0; break;
      case 1: lo[v] = hi[v] = 1.0; break;
      default: lo[v] = 0.0; hi[v] = 1.0; break;
    }
    LinearProgram bounded = lp;
    for (int u = 0; u < n; ++u) {
      bounded.mutable_vars()[u].lower = lo[u];
      bounded.mutable_vars()[u].upper = hi[u];
    }
    LpSolution ref = SolveLpRelaxation(bounded, Sense::kMaximize);
    SolveStatus st = inc.Solve(lo, hi);
    ASSERT_EQ(st, ref.status) << "seed " << GetParam() << " step " << step;
    if (st == SolveStatus::kOptimal) {
      EXPECT_NEAR(inc.objective(), ref.objective, 1e-6)
          << "seed " << GetParam() << " step " << step;
      for (int u = 0; u < n; ++u) {
        EXPECT_GE(inc.values()[u], lo[u] - 1e-6);
        EXPECT_LE(inc.values()[u], hi[u] + 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalLpRandom, ::testing::Range(0, 60));

TEST(IncrementalLp, WarmResolveTakesFewPivots) {
  // max sum b_i st sum b_i <= 3 over 8 binaries: re-solving after fixing
  // one variable must cost far fewer pivots than the cold solve.
  LinearProgram lp;
  std::vector<Term> terms;
  for (int i = 0; i < 8; ++i) {
    VarId b = lp.AddVariable(0, 1, false);
    lp.SetObjectiveCoef(b, 1.0 + 0.01 * i);
    terms.push_back(Term{b, 1.0});
  }
  lp.AddRow(Row{terms, RowOp::kLe, 3});
  IncrementalLp inc(lp);
  std::vector<double> lo(8, 0.0), hi(8, 1.0);
  ASSERT_EQ(inc.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(inc.objective(), 3.0 + 0.01 * (7 + 6 + 5), 1e-6);
  lo[7] = hi[7] = 0.0;  // exclude the best variable
  ASSERT_EQ(inc.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(inc.objective(), 3.0 + 0.01 * (6 + 5 + 4), 1e-6);
  EXPECT_LE(inc.last_pivots(), 3);
  EXPECT_EQ(inc.stats().solves, 2);
}

TEST(IncrementalLp, DetectsInfeasibleBoundChange) {
  // b1 + b2 >= 1; fixing both to 0 must be detected as infeasible, and
  // relaxing them again must recover the optimum.
  LinearProgram lp;
  VarId a = lp.AddVariable(0, 1, false);
  VarId b = lp.AddVariable(0, 1, false);
  lp.SetObjectiveCoef(a, -1.0);
  lp.SetObjectiveCoef(b, -2.0);
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kGe, 1});
  IncrementalLp inc(lp);
  std::vector<double> lo{0, 0}, hi{1, 1};
  ASSERT_EQ(inc.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(inc.objective(), -1.0, 1e-9);
  hi[0] = hi[1] = 0.0;
  EXPECT_EQ(inc.Solve(lo, hi), SolveStatus::kInfeasible);
  hi[0] = hi[1] = 1.0;
  ASSERT_EQ(inc.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(inc.objective(), -1.0, 1e-9);
}

TEST(IncrementalLp, SaveRestoreBasisRoundTrips) {
  LinearProgram lp;
  std::vector<Term> terms;
  for (int i = 0; i < 5; ++i) {
    VarId v = lp.AddVariable(0, 1, false);
    lp.SetObjectiveCoef(v, static_cast<double>(i + 1));
    terms.push_back(Term{v, 1.0});
  }
  lp.AddRow(Row{terms, RowOp::kLe, 2});
  IncrementalLp donor(lp);
  std::vector<double> lo(5, 0.0), hi(5, 1.0);
  ASSERT_EQ(donor.Solve(lo, hi), SolveStatus::kOptimal);
  LpBasis basis = donor.SaveBasis();
  EXPECT_FALSE(basis.empty());

  IncrementalLp child(lp);
  child.RestoreBasis(basis);
  ASSERT_EQ(child.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(child.objective(), donor.objective(), 1e-9);
  // Restoring a mismatched snapshot must fall back to the cold basis, not
  // crash or corrupt state.
  LpBasis bogus;
  bogus.status.assign(3, VarStatus::kAtLower);
  child.RestoreBasis(bogus);
  ASSERT_EQ(child.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(child.objective(), donor.objective(), 1e-9);
}

TEST(IncrementalLp, ReducedCostSignsAtOptimum) {
  // max 3a - b with a non-binding row: optimum a=1, b=0, both nonbasic
  // (non-degenerate vertex). b at lower must have d <= 0, and lp_obj + d
  // must still bound every solution with b = 1 (best such scores 2).
  LinearProgram lp;
  VarId a = lp.AddVariable(0, 1, false);
  VarId b = lp.AddVariable(0, 1, false);
  lp.SetObjectiveCoef(a, 3.0);
  lp.SetObjectiveCoef(b, -1.0);
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kLe, 2});
  IncrementalLp inc(lp);
  ASSERT_EQ(inc.Solve({0, 0}, {1, 1}), SolveStatus::kOptimal);
  EXPECT_NEAR(inc.objective(), 3.0, 1e-9);
  ASSERT_EQ(inc.StatusOf(a), VarStatus::kAtUpper);
  EXPECT_GE(inc.ReducedCost(a), -1e-9);
  ASSERT_EQ(inc.StatusOf(b), VarStatus::kAtLower);
  EXPECT_LE(inc.ReducedCost(b), 1e-9);
  EXPECT_GE(inc.objective() + inc.ReducedCost(b) + 1e-6, 2.0);
}

TEST(IncrementalLp, AddCutRowTightensRelaxation) {
  // max b1 + b2 + b3 st 2b1 + 2b2 + 2b3 <= 3: LP optimum 1.5, integer
  // optimum 1. The cover cut b1 + b2 + b3 <= 1 closes the gap.
  LinearProgram lp;
  std::vector<Term> heavy, unit;
  for (int i = 0; i < 3; ++i) {
    VarId v = lp.AddVariable(0, 1, false);
    lp.SetObjectiveCoef(v, 1.0);
    heavy.push_back(Term{v, 2.0});
    unit.push_back(Term{v, 1.0});
  }
  lp.AddRow(Row{heavy, RowOp::kLe, 3});
  IncrementalLp inc(lp);
  std::vector<double> lo(3, 0.0), hi(3, 1.0);
  ASSERT_EQ(inc.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(inc.objective(), 1.5, 1e-9);
  inc.AddCutRow(Row{unit, RowOp::kLe, 1});
  EXPECT_EQ(inc.num_cut_rows(), 1u);
  ASSERT_EQ(inc.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(inc.objective(), 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Cardinality cut separation.

double RowActivity(const Row& row, const std::vector<double>& x) {
  double a = 0.0;
  for (const Term& t : row.terms) a += t.coef * x[t.var];
  return a;
}

bool RowSatisfied(const Row& row, const std::vector<double>& x) {
  const double a = RowActivity(row, x);
  switch (row.op) {
    case RowOp::kLe: return a <= row.rhs + 1e-6;
    case RowOp::kGe: return a >= row.rhs - 1e-6;
    default: return std::abs(a - row.rhs) <= 1e-6;
  }
}

// Every generated cut must be satisfied by every feasible 0/1 point (cuts
// only shave fractional vertices) and violated by the fractional point it
// was separated from.
class CutValidity : public ::testing::TestWithParam<int> {};

TEST_P(CutValidity, CutsValidForAllIntegerPoints) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 42);
  const int n = 3 + static_cast<int>(rng.Uniform(4));  // 3..6 binaries
  LinearProgram lp;
  for (int v = 0; v < n; ++v) {
    VarId id = lp.AddVariable(0, 1, true);
    lp.SetObjectiveCoef(id, static_cast<double>(rng.UniformInt(-2, 3)));
  }
  for (int r = 0; r < 3; ++r) {
    Row row;
    for (int v = 0; v < n; ++v) {
      int64_t c = rng.UniformInt(-2, 3);
      if (c != 0) {
        row.terms.push_back(Term{static_cast<VarId>(v),
                                 static_cast<double>(c)});
      }
    }
    if (row.terms.size() < 3) continue;
    row.op = rng.Uniform(2) == 0 ? RowOp::kLe : RowOp::kGe;
    row.rhs = static_cast<double>(rng.UniformInt(1, 4));
    lp.AddRow(std::move(row));
  }
  // A fractional point to separate at.
  std::vector<double> x(n);
  for (int v = 0; v < n; ++v) {
    x[v] = 0.1 * static_cast<double>(rng.Uniform(11));
  }
  std::vector<Row> cuts = GenerateCardinalityCuts(lp, x);
  for (const Row& cut : cuts) {
    EXPECT_FALSE(RowSatisfied(cut, x))
        << "separated cut must be violated at the fractional point";
    for (int mask = 0; mask < (1 << n); ++mask) {
      std::vector<double> p(n);
      for (int v = 0; v < n; ++v) p[v] = (mask >> v) & 1;
      if (!lp.IsFeasible(p)) continue;
      EXPECT_TRUE(RowSatisfied(cut, p))
          << "cut cuts off feasible integer point, seed " << GetParam()
          << " mask " << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutValidity, ::testing::Range(0, 40));

TEST(Cuts, SeparatesCoverFromFractionalKnapsack) {
  // 2b1 + 2b2 + 2b3 <= 3 at x = (0.5, 0.5, 0.5): the cover b1+b2+b3 <= 1
  // (or an equivalent) must be found, violated by 0.5.
  LinearProgram lp;
  std::vector<Term> heavy;
  for (int i = 0; i < 3; ++i) {
    VarId v = lp.AddVariable(0, 1, true);
    lp.SetObjectiveCoef(v, 1.0);
    heavy.push_back(Term{v, 2.0});
  }
  lp.AddRow(Row{heavy, RowOp::kLe, 3});
  std::vector<Row> cuts = GenerateCardinalityCuts(lp, {0.5, 0.5, 0.5});
  ASSERT_FALSE(cuts.empty());
  bool found = false;
  for (const Row& cut : cuts) {
    found |= !RowSatisfied(cut, std::vector<double>{0.5, 0.5, 0.5});
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Reduced-cost fixing: end-to-end parity against brute-force enumeration.

struct BruteForce {
  bool feasible = false;
  double best = -kInfinity;
};

BruteForce Enumerate(const LinearProgram& lp) {
  BruteForce r;
  const int n = static_cast<int>(lp.num_vars());
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(n);
    for (int v = 0; v < n; ++v) x[v] = (mask >> v) & 1;
    if (!lp.IsFeasible(x)) continue;
    r.feasible = true;
    r.best = std::max(r.best, lp.EvalObjective(x));
  }
  return r;
}

LinearProgram RandomBinaryProgram(uint64_t seed) {
  Rng rng(seed);
  const int n = 3 + static_cast<int>(rng.Uniform(6));  // 3..8 binaries
  const int m = 2 + static_cast<int>(rng.Uniform(4));
  LinearProgram lp;
  for (int v = 0; v < n; ++v) {
    VarId id = lp.AddVariable(0, 1, true);
    lp.SetObjectiveCoef(id, static_cast<double>(rng.UniformInt(-4, 4)));
  }
  for (int r = 0; r < m; ++r) {
    Row row;
    for (int v = 0; v < n; ++v) {
      int64_t c = rng.UniformInt(-2, 2);
      if (c != 0) {
        row.terms.push_back(Term{static_cast<VarId>(v),
                                 static_cast<double>(c)});
      }
    }
    row.op = static_cast<RowOp>(rng.Uniform(3));
    row.rhs = static_cast<double>(rng.UniformInt(-1, 3));
    if (row.terms.empty()) continue;
    lp.AddRow(std::move(row));
  }
  return lp;
}

// With every LP-core feature enabled (node LP, RC fixing, cuts,
// pseudo-costs), the proved optimum must be bit-identical to brute-force
// enumeration — RC fixing may discard alternative optima but never the
// optimal *value*, and the returned witness must stay feasible + optimal.
class RcFixingParity : public ::testing::TestWithParam<int> {};

TEST_P(RcFixingParity, FeaturesOnMatchesEnumeration) {
  LinearProgram lp = RandomBinaryProgram(static_cast<uint64_t>(GetParam()));
  BruteForce ref = Enumerate(lp);
  MipOptions opt;
  opt.num_threads = 1;
  opt.use_lp_bound = true;
  opt.use_rc_fixing = true;
  opt.use_cuts = true;
  opt.use_pseudo_cost = true;
  MipResult res = MipSolver(opt).Solve(lp, Sense::kMaximize);
  if (!ref.feasible) {
    EXPECT_EQ(res.status, SolveStatus::kInfeasible);
    return;
  }
  ASSERT_EQ(res.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_EQ(res.objective, ref.best) << "seed " << GetParam();
  ASSERT_TRUE(res.has_solution);
  EXPECT_TRUE(lp.IsFeasible(res.solution));
  EXPECT_EQ(lp.EvalObjective(res.solution), ref.best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RcFixingParity, ::testing::Range(0, 80));

TEST(RcFixing, UniqueOptimumSurvives) {
  // max 5a + b + c st a + b + c <= 2: unique optimum (1,1,0)... not quite —
  // b and c tie. Break the tie: max 5a + 2b + c, unique optimum (1,1,0)
  // with value 7. RC fixing must never fix away any variable of the unique
  // optimal support.
  LinearProgram lp;
  VarId a = lp.AddVariable(0, 1, true);
  VarId b = lp.AddVariable(0, 1, true);
  VarId c = lp.AddVariable(0, 1, true);
  lp.SetObjectiveCoef(a, 5.0);
  lp.SetObjectiveCoef(b, 2.0);
  lp.SetObjectiveCoef(c, 1.0);
  lp.AddRow(Row{{{a, 1}, {b, 1}, {c, 1}}, RowOp::kLe, 2});
  MipOptions opt;
  opt.num_threads = 1;
  MipResult res = MipSolver(opt).Solve(lp, Sense::kMaximize);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_EQ(res.objective, 7.0);
  ASSERT_TRUE(res.has_solution);
  EXPECT_EQ(res.solution[a], 1.0);
  EXPECT_EQ(res.solution[b], 1.0);
  EXPECT_EQ(res.solution[c], 0.0);
}

// Feature ablation must not change proved bounds: all-on vs node LP off
// (and with it every feature that consumes it) on random programs, both
// senses, exact double equality.
class FeatureParity : public ::testing::TestWithParam<int> {};

TEST_P(FeatureParity, OnOffBitIdenticalBounds) {
  LinearProgram lp =
      RandomBinaryProgram(static_cast<uint64_t>(GetParam()) + 300);
  MipOptions on;
  on.num_threads = 1;
  MipOptions off = on;
  off.use_lp_bound = false;
  MinMaxMipResult r_on = MipSolver(on).SolveMinMax(lp);
  MinMaxMipResult r_off = MipSolver(off).SolveMinMax(lp);
  ASSERT_EQ(r_on.max.status, r_off.max.status) << "seed " << GetParam();
  ASSERT_EQ(r_on.min.status, r_off.min.status) << "seed " << GetParam();
  if (r_on.max.status == SolveStatus::kOptimal) {
    EXPECT_EQ(r_on.max.objective, r_off.max.objective);
    EXPECT_EQ(r_on.min.objective, r_off.min.objective);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeatureParity, ::testing::Range(0, 60));

}  // namespace
}  // namespace licm::solver
